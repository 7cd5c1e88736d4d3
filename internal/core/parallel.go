package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/pareto"
	"repro/internal/spec"
)

// ExploreParallel runs EXPLORE with the per-candidate work — the
// flexibility estimation and the implementation construction — fanned
// out over a pool of worker goroutines while keeping the resulting
// front bit-for-bit identical to the sequential explorer.
//
// The engine is a pipeline over *range jobs*: the cost-ordered
// enumeration is chunked into contiguous candidate ranges (adaptive
// size, or Options.Batch), a fixed pool of workers evaluates each
// range against a locally cached flexibility bound and folds the
// survivors into a private pareto.Front, and an ordered-commit stage
// reassembles the ranges in candidate order, replays their
// per-candidate records against the exact bound and merges the whole
// per-batch archives into the result front (pareto.Front.Merge).
// Compared to per-candidate jobs this removes the two serial
// bottlenecks that flattened the scaling curve: the channel handoff
// and the commit bookkeeping are paid once per range instead of once
// per candidate, and the shared bound is republished once per batch
// commit instead of once per implementation.
//
// Determinism is preserved by the commit order plus a second-chance
// re-check: a worker may act on a stale (i.e. lower) bound, which only
// causes extra implementation attempts; the commit stage replays each
// range's records against the exact sequential bound, so fronts,
// cursors, termination reasons and all semantic counters equal the
// sequential run's (see committer.commitBatch for the argument).
//
// workers <= 0 selects GOMAXPROCS; queue <= 0 selects 2 x workers
// range jobs of look-ahead. On a single-core host the pipeline adds
// only a few percent overhead; the speedup materializes with
// GOMAXPROCS > 1 because ranges are evaluated independently.
func ExploreParallel(s *spec.Spec, opts Options, workers, queue int) *Result {
	return ExploreParallelContext(context.Background(), s, opts, workers, queue)
}

// ExploreParallelContext is ExploreParallel under a context, with the
// same anytime semantics as ExploreContext: on cancellation the commit
// stage stops at the first unevaluated candidate (in candidate order),
// so the partial front is exactly the Pareto set of the explored prefix
// and Cursor marks where a resumed run continues.
//
// Candidate evaluations are additionally isolated against panics: a
// panicking estimation or implementation construction is recovered in
// its worker, recorded as a structured Diag in Stats, and the candidate
// is skipped — one poisoned design point cannot take down a long scan.
// (The sequential explorer deliberately does not recover: combined with
// periodic checkpointing, a crash there is recovered by resuming.)
func ExploreParallelContext(ctx context.Context, s *spec.Spec, opts Options, workers, queue int) *Result {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		return ExploreContext(ctx, s, opts)
	}
	if queue <= 0 {
		queue = 2 * workers
	}
	// Warm the lazy indexes of the specification before concurrent use.
	_ = Estimate(s, spec.Allocation{}, opts)

	// One evaluator, shared by all workers: its caches are sharded and
	// mutex-striped, so a binding proved (in)feasible by one worker is
	// reused by every other.
	ev := newEvaluator(s, opts)

	res := &Result{MaxFlexibility: MaxFlexibility(s, opts), Reason: ReasonCompleted}
	front := &pareto.Front{}
	fcur, startCursor := seedResume(res, front, opts.Resume)
	res.Cursor = startCursor
	res.Stats.Pipeline = PipelineStats{Workers: workers, QueueDepth: queue}

	p := &pipeline{
		ctx:  ctx,
		ev:   ev,
		opts: opts,
		jobs: make(chan *pipeBatch, queue),
		// Sized so a worker can always deposit a result without
		// blocking the commit stage's drain: at most queue+workers
		// range jobs are in flight between producer and committer.
		results: make(chan *pipeBatch, queue+workers),
		done:    make(chan struct{}),
	}
	// The enumeration replays the resumed prefix internally; seed the
	// counter so the running count matches a from-scratch scan.
	p.possible.Store(int64(startCursor))
	p.storeBound(fcur)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range p.jobs {
				p.evaluate(b)
				p.results <- b
			}
		}()
	}
	go func() {
		wg.Wait()
		close(p.results)
	}()

	c := &committer{
		p:        p,
		res:      res,
		front:    front,
		fcur:     fcur,
		next:     startCursor,
		lastEmit: startCursor,
		pending:  map[int]*pipeBatch{},
	}
	commitDone := make(chan struct{})
	go func() {
		defer close(commitDone)
		c.run()
	}()

	// The producer: the cost-ordered enumeration runs on this
	// goroutine, slicing the candidate stream into contiguous range
	// jobs. Candidate indices are assigned here, so a range job is
	// addressed by its start index alone.
	idx := startCursor
	emitted := 0
	producerCancelled := false
	var cur *pipeBatch
	send := func(b *pipeBatch) bool {
		select {
		case p.jobs <- b:
			if l := int64(len(b.cands)); l > p.maxBatch.Load() {
				p.maxBatch.Store(l)
			}
			if l := int64(len(p.jobs)); l > p.highWater.Load() {
				p.highWater.Store(l)
			}
			// Yield once, after the first dispatch, so the scan's first
			// range job starts before the producer saturates the queue.
			// When the stream arrives faster than workers drain it, sends
			// become back-to-back; on a single-P runtime the scheduler's
			// LIFO wakeup would then run the *latest*-readied worker
			// first, letting a late batch evaluate (and e.g. trip a
			// cancellation) before the first batch is even started —
			// collapsing the anytime cursor to 0. Yielding only here (not
			// per send) keeps the queue free to fill behind busy workers.
			if emitted == 1 {
				runtime.Gosched()
			}
			return true
		case <-p.done:
			// The commit stage ended the scan (cancellation committed
			// in order, or StopAtMaxFlex); b is dropped.
			return false
		}
	}
	aStats := candidates(s, opts, startCursor, func(cd alloc.Candidate) bool {
		p.possible.Add(1)
		if ctx.Err() != nil {
			producerCancelled = true
			return false
		}
		if cur == nil {
			cur = &pipeBatch{
				start: idx,
				cands: make([]spec.Allocation, 0, opts.batchSizeFor(emitted)),
			}
		}
		cur.cands = append(cur.cands, cd.Allocation)
		idx++
		if len(cur.cands) == cap(cur.cands) {
			b := cur
			cur = nil
			emitted++
			return send(b)
		}
		return true
	})
	if cur != nil && !producerCancelled {
		// The scan tail: a partial final range. If send fails the scan
		// already stopped and the tail is irrelevant.
		send(cur)
	}
	close(p.jobs)
	<-commitDone

	if producerCancelled && !c.stopped {
		// The producer observed the cancellation but every in-flight
		// range had already completed: the scan still ends interrupted,
		// prefix-exact at the last committed candidate.
		res.Interrupted, res.Reason = true, reasonFor(ctx)
	}
	res.Stats.PossibleAllocations = int(p.possible.Load())
	res.Stats.Pipeline.QueueHighWater = int(p.highWater.Load())
	res.Stats.Pipeline.CommitStalls = c.stalls
	res.Stats.Pipeline.BusyNanos = p.busy.Load()
	res.Stats.Pipeline.BatchSize = int(p.maxBatch.Load())
	res.Stats.Pipeline.BatchesCommitted = c.batches
	res.Stats.Pipeline.BoundPublishes = int(p.publishes.Load())
	ev.fold(&res.Stats)
	// A final progress event covers the scan tail past the last
	// periodic emission, so long tails still report (and a checkpoint
	// writer hooked on Progress captures the finished prefix).
	if opts.Progress != nil && res.Cursor > c.lastEmit {
		opts.Progress(Progress{
			Cursor:         res.Cursor,
			BestFlex:       c.fcur,
			MaxFlexibility: res.MaxFlexibility,
			Front:          frontToImplementations(front),
			Stats:          res.Stats,
		})
	}
	res.Reason = finishStats(s, &res.Stats, res.Reason, aStats)
	res.Front = frontToImplementations(front)
	return res
}

// batchSizeFor returns the size of the k-th range job of a run. An
// explicit Options.Batch pins every batch to that size. The adaptive
// default ramps 4, 8, 16, ... so the first commits land quickly (low
// latency for Progress consumers and StopAtMaxFlex), then settles at
// 64 candidates per job — large enough to amortize the channel handoff
// and commit bookkeeping, small enough to keep the reorder buffer and
// the cancellation overshoot bounded. When progress reporting is on,
// the ramp is additionally capped at the progress interval so batch
// commits never emit coarser than ProgressEvery.
func (o Options) batchSizeFor(k int) int {
	if o.Batch > 0 {
		return o.Batch
	}
	limit := 64
	if o.Progress != nil && o.progressEvery() < limit {
		limit = o.progressEvery()
	}
	size := 4
	for i := 0; i < k && size < limit; i++ {
		size *= 2
	}
	if size > limit {
		size = limit
	}
	return size
}

// pipeBatch is one contiguous candidate range travelling through the
// pipeline: the allocations to evaluate (indices start..start+len-1 of
// the cost-ordered enumeration), one record per candidate carrying its
// evaluation outcome, and the worker's private archive of the
// implementations that survived its local bound.
type pipeBatch struct {
	start int
	cands []spec.Allocation
	recs  []batchRec
	front *pareto.Front
}

// batchRec is the per-candidate evaluation record the ordered-commit
// stage replays against the exact flexibility bound. It carries the
// implementation pointer as well — redundant with the batch front in
// the common case, but required for the rare mid-batch stop, where the
// committed prefix ends inside the range and the batch archive (which
// covers the whole range) cannot be merged wholesale.
type batchRec struct {
	site         string
	est          float64
	estimated    bool
	attempted    bool
	cancelled    bool
	impl         *Implementation
	ecsTested    int
	bindingRuns  int
	bindingNodes int
	diag         *Diag
}

// pipeline holds the shared state of one parallel run: the channels,
// the atomically published flexibility bound, and the contention
// gauges.
type pipeline struct {
	ctx     context.Context
	ev      *evaluator
	opts    Options
	jobs    chan *pipeBatch
	results chan *pipeBatch
	// done is closed by the commit stage when the scan must stop;
	// producer and workers treat it as a fast-path skip.
	done chan struct{}
	// bound is the best implemented flexibility (math.Float64bits),
	// written by the commit stage once per committed batch, read by
	// workers once per batch. A stale read only admits extra
	// implementation attempts; the commit stage re-checks against the
	// exact bound.
	bound     atomic.Uint64
	publishes atomic.Int64
	possible  atomic.Int64
	highWater atomic.Int64
	busy      atomic.Int64
	maxBatch  atomic.Int64
}

// loadBound reads the published flexibility bound. It and storeBound
// are the only places allowed to convert the bound through
// math.Float64bits (enforced by flexvet FX002).
//
//flexvet:bound-helper
func (p *pipeline) loadBound() float64 {
	return math.Float64frombits(p.bound.Load())
}

// storeBound publishes a new flexibility bound to the workers and
// counts the publication — the relaxed per-batch cadence is the
// BoundPublishes gauge.
//
//flexvet:bound-helper
func (p *pipeline) storeBound(f float64) {
	p.bound.Store(math.Float64bits(f))
	p.publishes.Add(1)
}

// evaluate runs one range job on a worker goroutine. The published
// bound is read once per batch into a worker-local bound, which the
// worker's own implemented flexibilities then raise: for any candidate
// the local bound is never above the exact sequential bound at that
// candidate (the atomic is at most the bound at the batch's commit
// turn, and an own implementation's flexibility F at an earlier index
// satisfies F <= est there, which is <= the sequential bound whenever
// the sequential run skipped it) — so the worker attempts a superset
// of the sequential run's attempts and skips none of them, which is
// what makes the committer's exact replay sufficient.
func (p *pipeline) evaluate(b *pipeBatch) {
	start := time.Now() //flexvet:ignore FX006 busy gauge: elapsed time is telemetry, never part of results
	defer func() { p.busy.Add(time.Since(start).Nanoseconds()) }()
	b.recs = make([]batchRec, len(b.cands))
	b.front = &pareto.Front{}
	bound := p.loadBound()
	for i := range b.cands {
		select {
		case <-p.done:
			// The scan already ended at an earlier candidate; the
			// commit stage discards this range unexamined.
			return
		default:
		}
		if p.ctx.Err() != nil {
			b.recs[i].cancelled = true
			return
		}
		bound = p.evalOne(b, i, bound)
		if b.recs[i].cancelled {
			return
		}
	}
}

// evalOne runs the per-candidate work, mirroring the sequential
// explorer's order of operations exactly: estimate failpoint,
// cancellation re-check, estimation, bound check, implement failpoint,
// implementation construction. It returns the (possibly raised)
// worker-local bound. A panic is recovered into a per-candidate Diag,
// exactly isolating the poisoned candidate.
func (p *pipeline) evalOne(b *pipeBatch, i int, bound float64) float64 {
	idx := b.start + i
	r := &b.recs[i]
	defer func() {
		if rec := recover(); rec != nil {
			r.diag = &Diag{
				Kind: DiagPanic, Site: r.site, Cursor: idx,
				Allocation: b.cands[i].String(),
				Message:    fmt.Sprint(rec),
				Stack:      trimStack(debug.Stack()),
			}
		}
	}()
	r.site = SiteEstimate
	if err := p.opts.Fault.Fire(SiteEstimate, idx); err != nil {
		r.diag = &Diag{
			Kind: DiagError, Site: SiteEstimate, Cursor: idx,
			Allocation: b.cands[i].String(), Message: err.Error(),
		}
		return bound
	}
	if p.ctx.Err() != nil {
		// A Cancel failpoint fired between the two checks.
		r.cancelled = true
		return bound
	}
	r.estimated = true
	est, sup, haveSup := p.ev.estimate(b.cands[i])
	r.est = est
	if !p.opts.DisableFlexBound && est <= bound {
		return bound
	}
	r.site = SiteImplement
	if err := p.opts.Fault.Fire(SiteImplement, idx); err != nil {
		r.diag = &Diag{
			Kind: DiagError, Site: SiteImplement, Cursor: idx,
			Allocation: b.cands[i].String(), Message: err.Error(),
		}
		return bound
	}
	r.attempted = true
	var st Stats
	r.impl = p.ev.implement(b.cands[i], sup, haveSup, &st)
	r.ecsTested, r.bindingRuns, r.bindingNodes = st.ECSTested, st.BindingRuns, st.BindingNodes
	if r.impl != nil {
		b.front.Add(&pareto.Entry{
			Objectives: pareto.CostFlexObjectives(r.impl.Cost, r.impl.Flexibility),
			Value:      r.impl,
		})
		if r.impl.Flexibility > bound {
			bound = r.impl.Flexibility
		}
	}
	return bound
}

// committer is the ordered-commit stage: it owns the result, the front
// and the exact flexibility bound, folding whole range jobs strictly in
// candidate order through a reorder buffer keyed by range start.
type committer struct {
	p        *pipeline
	res      *Result
	front    *pareto.Front
	fcur     float64
	next     int
	lastEmit int
	pending  map[int]*pipeBatch
	stalls   int
	batches  int
	stopped  bool
}

func (c *committer) run() {
	for b := range c.p.results {
		if c.stopped {
			// Drain: the scan already ended at an earlier candidate.
			continue
		}
		if b.start != c.next {
			c.pending[b.start] = b
			c.stalls++
			continue
		}
		c.commitBatch(b)
		for !c.stopped {
			nb, ok := c.pending[c.next]
			if !ok {
				break
			}
			delete(c.pending, c.next)
			c.commitBatch(nb)
		}
	}
}

// commitBatch folds one in-order range job into the result — the same
// fold, in the same order, as the sequential explorer's candidate
// loop. The counters and the exact bound come from replaying the
// per-candidate records; the front comes from merging the batch's
// private archive wholesale.
//
// Why the wholesale merge is exact: by induction the committed front
// is the sequential front of the prefix and c.fcur the sequential
// bound. The worker attempted a superset of the sequential attempts
// (see evaluate), so every implementation the sequential run folds is
// in the batch records; the replay filter `attempted && est > fcur`
// recovers exactly the sequential attempt set, and raising fcur by
// each such implementation's flexibility equals the sequential
// front.Add-gated update (an implementation with flexibility above
// fcur is never dominated — every archived entry has flexibility
// <= fcur). For the front itself, any *extra* survivor in the batch
// archive (attempted only under the stale bound, est <= fcur at its
// turn) has flexibility <= est <= fcur while the committed front
// always holds an entry with flexibility >= fcur and cost <= the
// batch's costs (cost-ordered scan), so Merge rejects it as
// dominated-or-equal; and any batch-archive eviction it caused would
// have been rejected by the sequential Add for the same reason. Equal-
// objective ties keep the earliest entry in both designs. Hence
// Merge(batch archive) == the per-candidate sequential fold, payloads
// included.
func (c *committer) commitBatch(b *pipeBatch) {
	entry := c.fcur
	for i := range b.recs {
		r := &b.recs[i]
		idx := b.start + i
		if r.cancelled || (!r.estimated && r.diag == nil) {
			// First unevaluated candidate: the scan ends here,
			// prefix-exact. The batch archive covers candidates past
			// the stop, so the prefix is refolded per candidate.
			c.refold(b, i, entry)
			c.res.Interrupted, c.res.Reason = true, reasonFor(c.p.ctx)
			c.res.Cursor = idx
			c.stop()
			return
		}
		if r.estimated {
			c.res.Stats.Estimated++
		}
		if r.diag != nil {
			// Faulted or panicked: record the diagnostic, skip the
			// candidate, keep scanning.
			c.res.Stats.Diags = append(c.res.Stats.Diags, *r.diag)
			continue
		}
		// Second chance against the exact bound as of this candidate's
		// commit turn: drop attempts the sequential run would have
		// skipped.
		if r.attempted && (c.p.opts.DisableFlexBound || r.est > c.fcur) {
			c.res.Stats.Attempted++
			c.res.Stats.ECSTested += r.ecsTested
			c.res.Stats.BindingRuns += r.bindingRuns
			c.res.Stats.BindingNodes += r.bindingNodes
			if r.impl != nil {
				c.res.Stats.Feasible++
				if r.impl.Flexibility > c.fcur {
					c.fcur = r.impl.Flexibility
				}
			}
			// Same stopping rule as the sequential explorer: check
			// only after an attempted implementation.
			if c.p.opts.StopAtMaxFlex && c.fcur >= c.res.MaxFlexibility {
				c.refold(b, i+1, entry)
				c.res.Reason = ReasonMaxFlex
				c.res.Cursor = idx + 1
				c.stop()
				return
			}
		}
	}
	c.front.Merge(b.front)
	if c.fcur > entry {
		// Republish once per committed batch — the relaxed cadence.
		c.p.storeBound(c.fcur)
	}
	c.batches++
	c.advance(b.start + len(b.recs))
}

// refold is the rare mid-batch stop path (cancellation, StopAtMaxFlex):
// the batch archive cannot be merged wholesale because it covers
// candidates past the stopping point, so the committed prefix
// recs[:end] is folded per candidate instead — the literal sequential
// fold, replaying the exact-bound filter from the batch-entry bound.
func (c *committer) refold(b *pipeBatch, end int, fcur float64) {
	for i := 0; i < end; i++ {
		r := &b.recs[i]
		if r.diag != nil || !r.attempted {
			continue
		}
		if !c.p.opts.DisableFlexBound && r.est <= fcur {
			continue
		}
		if r.impl == nil {
			continue
		}
		c.front.Add(&pareto.Entry{
			Objectives: pareto.CostFlexObjectives(r.impl.Cost, r.impl.Flexibility),
			Value:      r.impl,
		})
		if r.impl.Flexibility > fcur {
			fcur = r.impl.Flexibility
		}
	}
}

func (c *committer) advance(cursor int) {
	c.next = cursor
	c.res.Cursor = cursor
	if c.p.opts.Progress != nil && cursor-c.lastEmit >= c.p.opts.progressEvery() {
		c.p.ev.fold(&c.res.Stats)
		c.res.Stats.PossibleAllocations = int(c.p.possible.Load())
		c.res.Stats.Pipeline.QueueHighWater = int(c.p.highWater.Load())
		c.res.Stats.Pipeline.CommitStalls = c.stalls
		c.res.Stats.Pipeline.BusyNanos = c.p.busy.Load()
		c.res.Stats.Pipeline.BatchSize = int(c.p.maxBatch.Load())
		c.res.Stats.Pipeline.BatchesCommitted = c.batches
		c.res.Stats.Pipeline.BoundPublishes = int(c.p.publishes.Load())
		c.p.opts.Progress(Progress{
			Cursor:         cursor,
			BestFlex:       c.fcur,
			MaxFlexibility: c.res.MaxFlexibility,
			Front:          frontToImplementations(c.front),
			Stats:          c.res.Stats,
		})
		c.lastEmit = cursor
	}
}

func (c *committer) stop() {
	c.stopped = true
	close(c.p.done)
}

// trimStack bounds a recovered panic's stack trace so Stats diags stay
// checkpoint-friendly.
func trimStack(stack []byte) string {
	const max = 2048
	if len(stack) > max {
		return string(stack[:max]) + "\n...[truncated]"
	}
	return string(stack)
}
