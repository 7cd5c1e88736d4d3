package core

import (
	"context"
	"sync/atomic"

	"repro/internal/alloc"
	"repro/internal/bind"
	"repro/internal/bitset"
	"repro/internal/pareto"
	"repro/internal/spec"
)

// scan is one run of the cost-ordered branch-and-bound loop every
// explorer shares (the paper's EXPLORE, Section 4): possible allocations
// arrive in nondecreasing cost, each is bounded by its flexibility
// estimate, and only the promising ones are implemented. The explorers
// differ only in their candidate source and their fold; resume seeding,
// the cursor, cancellation, the failpoints, progress reports and the
// final statistics live here, once.
type scan struct {
	ctx   context.Context
	s     *spec.Spec
	opts  Options
	ev    *evaluator
	res   *Result
	front *pareto.Front
	f     fold
	// pool is the worker pool of a parallel run (nil: every candidate
	// is evaluated inline, on the caller's goroutine).
	pool *pipeline
	// possible counts the candidates the source produced. It is atomic
	// because the pool's commit stage reports it while the producer
	// counts.
	possible atomic.Int64
	// settled marks a run whose front reached MaxFlexibility under the
	// bound (fold.done): no later candidate can change the front, so
	// the walk ends. The pool's commit stage sets it before it closes
	// done, so the producer sees it once push fails.
	settled  atomic.Bool
	lastEmit int
	// snaps maps each implementation in the front at the last report
	// to the copy Progress reports hand out, made at its first report.
	snaps map[*Implementation]*Implementation
	// rec and scratch are the inline evaluation's candidate record and
	// scratch, reused for every candidate. The record lives here because
	// bounder.prune takes it through an interface: a record local to the
	// loop would escape to the heap once per candidate.
	rec     candRec
	scratch scratch
	// samples memoises the sampling explorers' evaluations by unit-index
	// set (sample); key is the scratch set they are looked up by.
	samples map[string]sampled
	key     bitset.Set
}

// scratch is what one evaluating goroutine reuses across candidates:
// the solver effort of its last implementation, the estimate's
// supportable-set scratch, and the implementation's feasible and
// implemented cluster sets (with the activation memo), allocated
// architecture-cluster set, configuration views, picks, cost order and
// binding-solver scratch (evaluator.evalScratch).
type scratch struct {
	st          Stats
	sup         *alloc.SupportScratch
	feasible    bitset.Set
	implemented bitset.Set
	memo        []int8
	archSet     bitset.Set
	views       []viewSlot
	picks       []pick
	ids         []int
	bind        bind.Scratch
}

// fold is what differs between the cost-ordered explorers: the bound
// that prunes a candidate before its implementation, and how an
// implemented candidate enters the front.
type fold interface {
	bounder
	// take folds an attempted candidate (its record's att) into the
	// front and reports whether the candidate counts as feasible.
	take(r *candRec) (feasible bool)
	// done reports whether no later candidate can change the front,
	// so the scan stops.
	done() bool
	// best is the best flexibility folded so far.
	best() float64
}

// bounder decides whether candidate r, with flexibility estimate est,
// cannot improve the front and is skipped unimplemented.
type bounder interface {
	prune(r *candRec, est float64) bool
}

// candRec is one candidate's evaluation: what evalOne found and commit
// folds. A record neither estimated nor diagnosed is a candidate the
// scan's cancellation reached first.
type candRec struct {
	// units are the candidate's ascending indices into alloc.Units(s),
	// borrowed from the walk (inline) or the batch (pool). a is its
	// allocation map, built only when a Diag, a fold's bound or
	// admission asks for it (evaluator.allocation).
	units        []int
	a            spec.Allocation
	site         string
	est          float64
	estimated    bool
	attempted    bool
	att          attempt
	ecsTested    int
	bindingRuns  int
	bindingNodes int
	diag         *Diag
}

func (r *candRec) evaluated() bool { return r.estimated || r.diag != nil }

// reset readies the record for the candidate with the given unit
// indices: every field is zeroed except the storage of the attempt's
// implemented set and picks, which the next attempt overwrites (see
// evaluator.bindAll). An admitted attempt's Implementation copies what
// it keeps, so nothing a front holds aliases that storage.
func (r *candRec) reset(units []int) {
	*r = candRec{units: units, att: attempt{implemented: r.att.implemented, picks: r.att.picks[:0]}}
}

// newScan prepares a run; the caller builds its fold over sc.front and
// starts it with run. Computing MaxFlexibility also builds the
// specification's lazy indexes before a worker pool reads them
// concurrently.
func newScan(ctx context.Context, s *spec.Spec, opts Options) *scan {
	ev := newEvaluator(s, opts)
	sc := &scan{
		ctx:   ctx,
		s:     s,
		opts:  opts,
		ev:    ev,
		res:   &Result{MaxFlexibility: maxFlexibility(s, ev.sup.Units, opts), Reason: ReasonCompleted},
		front: &pareto.Front{},
	}
	sc.scratch = sc.ev.evalScratch()
	return sc
}

// boundFold is EXPLORE's fold. Because candidates arrive in
// nondecreasing cost, a new implementation is Pareto-optimal iff its
// flexibility exceeds every flexibility implemented so far, so a
// candidate whose estimate does not exceed fcur is pruned. Only
// implementations above floor are admitted: 0 for Explore, the base
// implementation's flexibility for Upgrade.
//
// The estimate is monotone in the allocation, so no candidate's
// estimate exceeds maxFlex, the full allocation's. Once fcur reaches
// maxFlex the bound prunes every later candidate, and the fold is done.
// Without the bound (Exhaustive) it is done there only under
// StopAtMaxFlex.
type boundFold struct {
	ev      *evaluator
	front   *pareto.Front
	fcur    float64
	floor   float64
	maxFlex float64
	settles bool
}

func (sc *scan) boundFold(floor float64) *boundFold {
	return &boundFold{
		ev: sc.ev, front: sc.front, fcur: floor, floor: floor,
		maxFlex: sc.res.MaxFlexibility,
		settles: !sc.opts.DisableFlexBound || sc.opts.StopAtMaxFlex,
	}
}

func (f *boundFold) prune(_ *candRec, est float64) bool { return est <= f.fcur }

func (f *boundFold) take(r *candRec) (feasible bool) {
	at := &r.att
	if !at.ok || at.flex <= f.floor {
		return false
	}
	if f.ev.admit(f.front, at.cost, at.flex, r) && at.flex > f.fcur {
		f.fcur = at.flex
	}
	return true
}

func (f *boundFold) done() bool { return f.settles && f.fcur >= f.maxFlex }

func (f *boundFold) best() float64 { return f.fcur }

// source streams the cost-ordered possible allocations from the
// candidate index start on, each as its unit indices into
// alloc.Units(s), borrowed until fn returns, and its cost. length
// counts the whole stream on request (alloc.EnumerateSymbolicUnits).
type source func(start int, fn func(units []int, cost float64) bool) (st alloc.Stats, length func() (int, bool))

// candidates is the explorers' source: the symbolic walk over the
// possible-allocation BDD.
func (sc *scan) candidates(start int, fn func(units []int, cost float64) bool) (alloc.Stats, func() (int, bool)) {
	return alloc.EnumerateSymbolicUnits(sc.s, nil, sc.allocOptions(), start, fn)
}

func (sc *scan) allocOptions() alloc.Options {
	return alloc.Options{IncludeUselessComm: sc.opts.IncludeUselessComm, MaxScan: sc.opts.MaxScan}
}

// run drives the scan: src streams the candidates from an index on, and
// f folds them. With workers > 1 the per-candidate work runs on a
// worker pool (see parallel.go); otherwise each candidate is evaluated
// and folded inline, with no goroutine and no channel.
func (sc *scan) run(f fold, src source, workers, queue int) *Result {
	sc.f = f
	res := sc.res
	start := 0
	if r := sc.opts.Resume; r != nil {
		// The effort counters continue from the snapshot. Scanned and
		// PossibleAllocations restart because the resumed enumeration
		// replays the whole prefix, and the pipeline gauges describe a
		// single run.
		res.Stats = r.Stats
		res.Stats.Scanned = 0
		res.Stats.Pipeline = PipelineStats{}
		for _, im := range r.Front {
			f.take(&candRec{att: readyAttempt(im)})
		}
		start = r.Cursor
	}
	res.Cursor, sc.lastEmit = start, start
	sc.possible.Store(int64(start))
	// A front that already reaches the maximum (a resumed snapshot, an
	// Upgrade base) settles the run before any candidate is evaluated:
	// the walk stops at its first one.
	sc.settled.Store(f.done())
	if workers > 1 && !sc.settled.Load() {
		sc.startPool(workers, queue)
	}
	aStats, length := src(start, func(units []int, _ float64) bool {
		if sc.settled.Load() {
			return false
		}
		sc.possible.Add(1)
		if sc.pool != nil {
			return sc.pool.push(units)
		}
		// Inline, every earlier candidate is committed: the cursor is
		// this candidate's index.
		idx := res.Cursor
		r := &sc.rec
		r.reset(units)
		if sc.ctx.Err() == nil {
			sc.evalOne(r, idx, f, &sc.scratch)
		}
		return sc.commit(idx, r)
	})
	if sc.pool != nil {
		sc.pool.finish()
	}
	settled := sc.settled.Load()
	if settled {
		sc.settle(length)
	}
	// A closing report covers the scan tail past the last periodic one,
	// so a checkpoint writer hooked on Progress captures the whole
	// explored prefix.
	if sc.opts.Progress != nil && res.Cursor > sc.lastEmit {
		sc.emit()
	}
	res.Stats.Scanned = aStats.Scanned
	sc.setSpace(aStats.SearchSpace)
	if res.Reason == ReasonCompleted && aStats.BudgetCut && !settled {
		// The MaxScan budget cut the candidate stream short. A settled
		// run is complete even when a parallel producer ran ahead into
		// the budget.
		res.Reason = ReasonScanBound
	}
	return sc.finish()
}

// settle reports a run whose front reached MaxFlexibility. The bound
// prunes every later candidate, so the run reports what the full scan
// reports: completed, with the cursor and PossibleAllocations at the
// length of the candidate stream. StopAtMaxFlex, or a stream too long
// for an int, reports ReasonMaxFlex at the stop cursor instead.
func (sc *scan) settle(length func() (int, bool)) {
	if !sc.opts.StopAtMaxFlex {
		if n, ok := length(); ok {
			sc.res.Cursor = n
			sc.possible.Store(int64(n))
			return
		}
	}
	sc.res.Reason = ReasonMaxFlex
}

// finish publishes the final counters and the front.
func (sc *scan) finish() *Result {
	sc.sync()
	sc.res.Front = frontToImplementations(sc.front)
	return sc.res
}

// setSpace records the size of the allocation space searched and of
// the design space over it.
func (sc *scan) setSpace(allocSpace float64) {
	_, _, pc, _ := sc.s.Problem.ElementCount()
	sc.res.Stats.AllocSpace = allocSpace
	sc.res.Stats.DesignSpace = allocSpace * alloc.SearchSpace(pc)
}

// evalOne runs one candidate's work in the engine's fixed order:
// estimate failpoint, cancellation re-check, estimation, bound,
// implement failpoint, implementation construction. b decides the
// bound: the exact fold inline, a worker's scalar bound in the pool.
// w is the evaluating goroutine's scratch. On the cached path neither a
// pruned nor an attempted candidate builds its allocation map; a Diag
// and admission (materialise) do.
func (sc *scan) evalOne(r *candRec, idx int, b bounder, w *scratch) {
	r.site = SiteEstimate
	if err := sc.opts.Fault.Fire(SiteEstimate, idx); err != nil {
		sc.fail(r, idx, err)
		return
	}
	if sc.ctx.Err() != nil {
		// A Cancel failpoint fired between the two checks.
		return
	}
	r.estimated = true
	est, sup := sc.ev.estimate(r, w.sup)
	r.est = est
	if sc.pruned(b, r) {
		return
	}
	r.site = SiteImplement
	if err := sc.opts.Fault.Fire(SiteImplement, idx); err != nil {
		sc.fail(r, idx, err)
		return
	}
	r.attempted = true
	w.st = Stats{}
	r.att = sc.ev.implement(r.units, sup, w, &w.st, r.att)
	r.ecsTested, r.bindingRuns, r.bindingNodes = w.st.ECSTested, w.st.BindingRuns, w.st.BindingNodes
}

func (sc *scan) fail(r *candRec, idx int, err error) {
	r.diag = &Diag{
		Kind: DiagError, Site: r.site, Cursor: idx,
		Allocation: sc.ev.allocation(r).String(), Message: err.Error(),
	}
}

func (sc *scan) pruned(b bounder, r *candRec) bool {
	return !sc.opts.DisableFlexBound && b.prune(r, r.est)
}

// commit folds candidate idx's evaluation into the result, strictly in
// candidate order, and reports whether the scan goes on. It is the one
// ordered fold of every explorer: called inline right after evalOne, or
// by the pool's commit stage behind its reorder buffer.
func (sc *scan) commit(idx int, r *candRec) bool {
	res := sc.res
	if !r.evaluated() {
		// The first candidate the cancellation reached: the scan ends
		// here, and the front is exactly the prefix's.
		res.Interrupted, res.Reason = true, reasonFor(sc.ctx)
		return false
	}
	if r.estimated {
		res.Stats.Estimated++
	}
	stop := false
	switch {
	case r.site == SiteImplement && sc.pool != nil && sc.pruned(sc.f, r):
		// A pool worker passed the candidate on a stale bound; the
		// exact fold prunes it, so its attempt (or the attempt's fault)
		// never happened.
	case r.diag != nil:
		// Faulted or panicked: record it, skip the candidate, go on.
		res.Stats.Diags = append(res.Stats.Diags, *r.diag)
	case r.attempted:
		res.Stats.Attempted++
		res.Stats.ECSTested += r.ecsTested
		res.Stats.BindingRuns += r.bindingRuns
		res.Stats.BindingNodes += r.bindingNodes
		if sc.f.take(r) {
			res.Stats.Feasible++
		}
		stop = sc.f.done()
	}
	res.Cursor = idx + 1
	if stop {
		sc.settled.Store(true)
		return false
	}
	if sc.opts.Progress != nil && res.Cursor-sc.lastEmit >= sc.opts.progressEvery() {
		sc.emit()
	}
	return true
}

// sync publishes the counters kept outside res.Stats during the scan.
func (sc *scan) sync() {
	sc.ev.fold(&sc.res.Stats)
	sc.res.Stats.PossibleAllocations = int(sc.possible.Load())
	if sc.pool != nil {
		sc.pool.gauges(&sc.res.Stats.Pipeline)
	}
}

// emit reports a consistent snapshot of the committed prefix.
func (sc *scan) emit() {
	sc.sync()
	sc.opts.Progress(Progress{
		Cursor:         sc.res.Cursor,
		BestFlex:       sc.f.best(),
		MaxFlexibility: sc.res.MaxFlexibility,
		Front:          sc.snapshotFront(),
		Stats:          sc.res.Stats,
	})
	sc.lastEmit = sc.res.Cursor
}

// snapshotFront returns the front for a Progress report: each
// implementation's report copy, made once, so a consumer that changes
// what it is handed cannot reach the run's result. Only the front's
// current points keep their copies, so the run holds no report copy
// (and no original) of a point the front has evicted.
func (sc *scan) snapshotFront() []*Implementation {
	entries := sc.front.Entries()
	snaps := make(map[*Implementation]*Implementation, len(entries))
	var out []*Implementation
	for _, e := range entries {
		im := e.Value.(*Implementation)
		c := sc.snaps[im]
		if c == nil {
			c = owned(im)
		}
		snaps[im] = c
		out = append(out, c)
	}
	sc.snaps = snaps
	return out
}

func frontToImplementations(front *pareto.Front) []*Implementation {
	var out []*Implementation
	for _, e := range front.Entries() {
		out = append(out, e.Value.(*Implementation))
	}
	return out
}
