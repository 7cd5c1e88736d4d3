package core

import (
	"context"
	"sync/atomic"

	"repro/internal/alloc"
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
	lastEmit int
	// scratch collects an inline implementation's solver effort.
	scratch Stats
}

// fold is what differs between the cost-ordered explorers: the bound
// that prunes a candidate before its implementation, and how an
// implemented candidate enters the front.
type fold interface {
	bounder
	// take folds an attempted candidate's implementation (nil when
	// infeasible) into the front. It reports whether the candidate
	// counts as feasible and whether the scan stops after it.
	take(im *Implementation) (feasible, stop bool)
	// best is the best flexibility folded so far.
	best() float64
}

// bounder decides whether a candidate with flexibility estimate est
// cannot improve the front and is skipped unimplemented.
type bounder interface {
	prune(a spec.Allocation, est float64) bool
}

// candRec is one candidate's evaluation: what evalOne found and commit
// folds. A record neither estimated nor diagnosed is a candidate the
// scan's cancellation reached first.
type candRec struct {
	site         string
	est          float64
	estimated    bool
	attempted    bool
	impl         *Implementation
	ecsTested    int
	bindingRuns  int
	bindingNodes int
	diag         *Diag
}

func (r *candRec) evaluated() bool { return r.estimated || r.diag != nil }

// newScan prepares a run; the caller builds its fold over sc.front and
// starts it with run. Computing MaxFlexibility also builds the
// specification's lazy indexes before a worker pool reads them
// concurrently.
func newScan(ctx context.Context, s *spec.Spec, opts Options) *scan {
	return &scan{
		ctx:   ctx,
		s:     s,
		opts:  opts,
		ev:    newEvaluator(s, opts),
		res:   &Result{MaxFlexibility: MaxFlexibility(s, opts), Reason: ReasonCompleted},
		front: &pareto.Front{},
	}
}

// boundFold is EXPLORE's fold. Because candidates arrive in
// nondecreasing cost, a new implementation is Pareto-optimal iff its
// flexibility exceeds every flexibility implemented so far, so a
// candidate whose estimate does not exceed fcur is pruned. Only
// implementations above floor are admitted: 0 for Explore, the base
// implementation's flexibility for Upgrade.
type boundFold struct {
	front     *pareto.Front
	fcur      float64
	floor     float64
	maxFlex   float64
	stopAtMax bool
}

func (sc *scan) boundFold(floor float64) *boundFold {
	return &boundFold{
		front: sc.front, fcur: floor, floor: floor,
		maxFlex: sc.res.MaxFlexibility, stopAtMax: sc.opts.StopAtMaxFlex,
	}
}

func (f *boundFold) prune(_ spec.Allocation, est float64) bool { return est <= f.fcur }

func (f *boundFold) take(im *Implementation) (feasible, stop bool) {
	if im != nil && im.Flexibility > f.floor {
		feasible = true
		if f.front.Add(&pareto.Entry{
			Objectives: pareto.CostFlexObjectives(im.Cost, im.Flexibility),
			Value:      im,
		}) && im.Flexibility > f.fcur {
			f.fcur = im.Flexibility
		}
	}
	return feasible, f.stopAtMax && f.fcur >= f.maxFlex
}

func (f *boundFold) best() float64 { return f.fcur }

// candidates streams the cost-ordered possible allocations from the
// candidate index start on: the symbolic walk over the
// possible-allocation BDD.
func (sc *scan) candidates(start int, fn func(alloc.Candidate) bool) alloc.Stats {
	return alloc.EnumerateSymbolicRange(sc.s, sc.allocOptions(), start, fn)
}

func (sc *scan) allocOptions() alloc.Options {
	return alloc.Options{IncludeUselessComm: sc.opts.IncludeUselessComm, MaxScan: sc.opts.MaxScan}
}

// run drives the scan: source streams the candidates from an index on,
// and f folds them. With workers > 1 the per-candidate work runs on a
// worker pool (see parallel.go); otherwise each candidate is evaluated
// and folded inline, with no goroutine and no channel.
func (sc *scan) run(f fold, source func(start int, fn func(alloc.Candidate) bool) alloc.Stats, workers, queue int) *Result {
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
			f.take(im)
		}
		start = r.Cursor
	}
	res.Cursor, sc.lastEmit = start, start
	sc.possible.Store(int64(start))
	if workers > 1 {
		sc.startPool(workers, queue)
	}
	aStats := source(start, func(c alloc.Candidate) bool {
		sc.possible.Add(1)
		if sc.pool != nil {
			return sc.pool.push(c.Allocation)
		}
		// Inline, every earlier candidate is committed: the cursor is
		// this candidate's index.
		idx := res.Cursor
		var r candRec
		if sc.ctx.Err() == nil {
			sc.evalOne(&r, idx, c.Allocation, f, &sc.scratch)
		}
		return sc.commit(idx, c.Allocation, &r)
	})
	if sc.pool != nil {
		sc.pool.finish()
	}
	sc.sync()
	// A closing report covers the scan tail past the last periodic one,
	// so a checkpoint writer hooked on Progress captures the whole
	// explored prefix.
	if sc.opts.Progress != nil && res.Cursor > sc.lastEmit {
		sc.emit()
	}
	_, _, pc, _ := sc.s.Problem.ElementCount()
	res.Stats.Scanned = aStats.Scanned
	res.Stats.AllocSpace = aStats.SearchSpace
	res.Stats.DesignSpace = aStats.SearchSpace * alloc.SearchSpace(pc)
	if res.Reason == ReasonCompleted && aStats.BudgetCut {
		// The MaxScan budget cut the candidate stream short.
		res.Reason = ReasonScanBound
	}
	res.Front = frontToImplementations(sc.front)
	return res
}

// evalOne runs one candidate's work in the engine's fixed order:
// estimate failpoint, cancellation re-check, estimation, bound,
// implement failpoint, implementation construction. b decides the
// bound: the exact fold inline, a worker's scalar bound in the pool.
// st is the evaluating goroutine's scratch for the solver effort.
func (sc *scan) evalOne(r *candRec, idx int, a spec.Allocation, b bounder, st *Stats) {
	r.site = SiteEstimate
	if err := sc.opts.Fault.Fire(SiteEstimate, idx); err != nil {
		r.fail(idx, a, err)
		return
	}
	if sc.ctx.Err() != nil {
		// A Cancel failpoint fired between the two checks.
		return
	}
	r.estimated = true
	est, sup, haveSup := sc.ev.estimate(a)
	r.est = est
	if sc.pruned(b, a, est) {
		return
	}
	r.site = SiteImplement
	if err := sc.opts.Fault.Fire(SiteImplement, idx); err != nil {
		r.fail(idx, a, err)
		return
	}
	r.attempted = true
	*st = Stats{}
	r.impl = sc.ev.implement(a, sup, haveSup, st)
	r.ecsTested, r.bindingRuns, r.bindingNodes = st.ECSTested, st.BindingRuns, st.BindingNodes
}

func (r *candRec) fail(idx int, a spec.Allocation, err error) {
	r.diag = &Diag{
		Kind: DiagError, Site: r.site, Cursor: idx,
		Allocation: a.String(), Message: err.Error(),
	}
}

func (sc *scan) pruned(b bounder, a spec.Allocation, est float64) bool {
	return !sc.opts.DisableFlexBound && b.prune(a, est)
}

// commit folds candidate idx's evaluation into the result, strictly in
// candidate order, and reports whether the scan goes on. It is the one
// ordered fold of every explorer: called inline right after evalOne, or
// by the pool's commit stage behind its reorder buffer.
func (sc *scan) commit(idx int, a spec.Allocation, r *candRec) bool {
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
	case r.site == SiteImplement && sc.pool != nil && sc.pruned(sc.f, a, r.est):
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
		var feasible bool
		if feasible, stop = sc.f.take(r.impl); feasible {
			res.Stats.Feasible++
		}
	}
	res.Cursor = idx + 1
	if stop {
		res.Reason = ReasonMaxFlex
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
		Front:          frontToImplementations(sc.front),
		Stats:          sc.res.Stats,
	})
	sc.lastEmit = sc.res.Cursor
}

func frontToImplementations(front *pareto.Front) []*Implementation {
	var out []*Implementation
	for _, e := range front.Entries() {
		out = append(out, e.Value.(*Implementation))
	}
	return out
}
