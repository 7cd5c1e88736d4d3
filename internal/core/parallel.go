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

	"repro/internal/spec"
)

// ExploreParallel runs EXPLORE with the per-candidate work — the
// flexibility estimation and the implementation construction — fanned
// out over a pool of worker goroutines while keeping the resulting
// front bit-for-bit identical to the sequential explorer.
//
// It is the sequential scan with a worker pool in front of the fold:
// the cost-ordered enumeration is chunked into contiguous candidate
// ranges (adaptive size), the workers evaluate each range against a
// locally cached scalar flexibility bound, and a commit stage
// reassembles the ranges in candidate order and folds every candidate
// through the same per-candidate commit the sequential scan runs.
// Ranges pay the channel handoff once per range instead of once per
// candidate, and the shared bound is republished once per committed
// range instead of once per implementation.
//
// A worker may act on a stale (i.e. lower) bound, which only causes
// extra implementation attempts: the commit re-checks each attempt
// against the exact bound, so fronts, cursors, termination reasons and
// all semantic counters equal the sequential run's (see
// pipeline.evaluate for the argument).
//
// workers <= 0 selects GOMAXPROCS; queue <= 0 selects 2 x workers
// range jobs of look-ahead.
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
// With one worker it is ExploreContext: the scan runs inline.
func ExploreParallelContext(ctx context.Context, s *spec.Spec, opts Options, workers, queue int) *Result {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sc := newScan(ctx, s, opts)
	return sc.run(sc.boundFold(0), sc.candidates, workers, queue)
}

// batchSizeFor returns the size of the k-th range job of a run. The
// ramp 4, 8, 16, ... lands the first commits quickly (low latency for
// Progress consumers and the settle stop), then levels off at 64
// candidates per job — large enough to amortize the channel handoff, small enough
// to keep the reorder buffer and the cancellation overshoot bounded.
// When progress reporting is on, the ramp is additionally capped at the
// progress interval.
func (o Options) batchSizeFor(k int) int {
	limit := 64
	if o.Progress != nil {
		limit = min(limit, o.progressEvery())
	}
	return min(4<<min(k, 4), limit)
}

// pipeBatch is one contiguous candidate range travelling through the
// pipeline: one evaluation record per candidate (indices
// start..start+len-1 of the cost-ordered enumeration), whose unit
// indices are windows into units, the batch's one copy of them. A
// fully committed batch goes back to its run's free list, and the
// producer refills it, records and their attempt buffers included.
type pipeBatch struct {
	start int
	units []int
	recs  []candRec
}

// pipeline is the worker pool of a parallel scan: the producer's open
// range job (owned by the scan's goroutine), the channels, the
// atomically published flexibility bound, the commit stage's reorder
// buffer (owned by the commit goroutine), and the contention gauges.
type pipeline struct {
	sc      *scan
	ctx     context.Context
	jobs    chan *pipeBatch
	results chan *pipeBatch
	// free holds the batches the commit stage has fully committed, for
	// the producer to refill. It is per run, not a process-wide pool: a
	// record's picks point into this run's memo. The channel handoffs
	// (worker to commit stage on results, commit stage to producer on
	// free) order every reuse after the batch's last read.
	free chan *pipeBatch
	// done is closed by the commit stage when the scan must stop;
	// producer and workers treat it as a fast-path skip.
	done       chan struct{}
	commitDone chan struct{}

	// Producer state: the open range job's start and size, and its
	// candidates' unit indices, staged in buffers reused across jobs
	// (candidate i's indices end at offset ends[i] of stage).
	curStart  int
	curSize   int
	stage     []int
	ends      []int
	emitted   int
	cancelled bool

	// Commit-stage state.
	next    int
	pending map[int]*pipeBatch
	stalls  int
	batches int
	stopped bool

	// bound is the best implemented flexibility (math.Float64bits),
	// written by the commit stage once per committed batch, read by
	// workers once per batch. A stale read only admits extra
	// implementation attempts; the commit stage re-checks against the
	// exact bound.
	bound     atomic.Uint64
	publishes atomic.Int64
	highWater atomic.Int64
	busy      atomic.Int64
	maxBatch  atomic.Int64
}

// startPool starts the workers and the commit stage of a parallel scan.
func (sc *scan) startPool(workers, queue int) {
	if queue <= 0 {
		queue = 2 * workers
	}
	p := &pipeline{
		sc:   sc,
		ctx:  sc.ctx,
		jobs: make(chan *pipeBatch, queue),
		// Sized so a worker can always deposit a result without
		// blocking the commit stage's drain: at most queue+workers
		// range jobs are in flight between producer and committer.
		results: make(chan *pipeBatch, queue+workers),
		// Room for every batch in flight twice over, so the commit
		// stage rarely drops one it hands back.
		free:       make(chan *pipeBatch, 2*(queue+workers)+2),
		done:       make(chan struct{}),
		commitDone: make(chan struct{}),
		next:       sc.res.Cursor,
		pending:    map[int]*pipeBatch{},
	}
	sc.pool = p
	sc.res.Stats.Pipeline = PipelineStats{Workers: workers, QueueDepth: queue}
	p.storeBound(sc.f.best())

	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := worker{scratch: sc.ev.evalScratch()}
			for b := range p.jobs {
				p.evaluate(b, &w)
				p.results <- b
			}
		}()
	}
	go func() {
		wg.Wait()
		close(p.results)
	}()
	go func() {
		defer close(p.commitDone)
		p.commitStage()
	}()
}

// push appends a candidate's unit indices, borrowed from the source, to
// the open range job and dispatches the job when full. It reports
// whether the scan goes on.
func (p *pipeline) push(units []int) bool {
	if p.ctx.Err() != nil {
		p.cancelled = true
		return false
	}
	if len(p.ends) == 0 {
		// The source has counted this candidate, so its index is one
		// less.
		p.curStart = int(p.sc.possible.Load()) - 1
		p.curSize = p.sc.opts.batchSizeFor(p.emitted)
	}
	p.stage = append(p.stage, units...)
	p.ends = append(p.ends, len(p.stage))
	if len(p.ends) < p.curSize {
		return true
	}
	p.emitted++
	return p.send(p.close())
}

// close turns the open range job into a batch — a recycled one when
// the free list has one: one copy of the staged unit indices, and a
// reset record per candidate windowing it.
func (p *pipeline) close() *pipeBatch {
	var b *pipeBatch
	select {
	case b = <-p.free:
	default:
		// Records for the largest range job, so a recycled batch never
		// grows (and never drops the buffers of the records it has).
		b = &pipeBatch{recs: make([]candRec, 0, p.sc.opts.batchSizeFor(math.MaxInt))}
	}
	b.start = p.curStart
	b.units = append(b.units[:0], p.stage...)
	b.recs = b.recs[:len(p.ends)]
	lo := 0
	for i, hi := range p.ends {
		b.recs[i].reset(b.units[lo:hi:hi])
		lo = hi
	}
	p.stage, p.ends = p.stage[:0], p.ends[:0]
	return b
}

func (p *pipeline) send(b *pipeBatch) bool {
	select {
	case p.jobs <- b:
		if l := int64(len(b.recs)); l > p.maxBatch.Load() {
			p.maxBatch.Store(l)
		}
		if l := int64(len(p.jobs)); l > p.highWater.Load() {
			p.highWater.Store(l)
		}
		// Yield once, after the first dispatch, so the scan's first
		// range job starts before the producer saturates the queue.
		// When the stream arrives faster than workers drain it, sends
		// become back-to-back; on a single-P runtime the scheduler's
		// LIFO wakeup would then run the *latest*-readied worker first,
		// letting a late batch evaluate (and e.g. trip a cancellation)
		// before the first batch is even started — collapsing the
		// anytime cursor to 0. Yielding only here (not per send) keeps
		// the queue free to fill behind busy workers.
		if p.emitted == 1 {
			runtime.Gosched()
		}
		return true
	case <-p.done:
		// The commit stage ended the scan (cancellation committed in
		// order, or the run settled); b is dropped.
		return false
	}
}

// finish dispatches the scan tail, waits for the commit stage, and
// settles a cancellation only the producer observed.
func (p *pipeline) finish() {
	if len(p.ends) > 0 && !p.cancelled {
		// A partial final range. If send fails the scan already stopped
		// and the tail is irrelevant.
		p.send(p.close())
	}
	close(p.jobs)
	<-p.commitDone
	if p.cancelled && !p.stopped {
		// Every in-flight range had completed: the scan still ends
		// interrupted, prefix-exact at the last committed candidate.
		p.sc.res.Interrupted, p.sc.res.Reason = true, reasonFor(p.ctx)
	}
}

// gauges reports the pool's contention gauges.
func (p *pipeline) gauges(ps *PipelineStats) {
	ps.QueueHighWater = int(p.highWater.Load())
	ps.CommitStalls = p.stalls
	ps.BusyNanos = p.busy.Load()
	ps.BatchSize = int(p.maxBatch.Load())
	ps.BatchesCommitted = p.batches
	ps.BoundPublishes = int(p.publishes.Load())
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

// worker is a pool worker's private state: its scalar flexibility
// bound and its evaluation scratch.
type worker struct {
	bound float64
	scratch
}

func (w *worker) prune(_ *candRec, est float64) bool { return est <= w.bound }

// evaluate runs one range job on a worker goroutine. The published
// bound is read once per batch into the worker-local bound, which the
// worker's own implemented flexibilities then raise: for any candidate
// the local bound is never above the exact sequential bound at that
// candidate (the atomic is at most the bound at the batch's commit
// turn, and an own implementation's flexibility F at an earlier index
// satisfies F <= est there, which is <= the sequential bound whenever
// the sequential run skipped it) — so the worker attempts a superset
// of the sequential run's attempts and skips none of them, which is
// what makes the commit's re-check against the exact bound sufficient.
func (p *pipeline) evaluate(b *pipeBatch, w *worker) {
	start := time.Now() //flexvet:ignore FX006 busy gauge: elapsed time is telemetry, never part of results
	defer func() { p.busy.Add(time.Since(start).Nanoseconds()) }()
	w.bound = p.loadBound()
	for i := range b.recs {
		select {
		case <-p.done:
			// The scan already ended at an earlier candidate; the
			// commit stage discards this range unexamined.
			return
		default:
		}
		if p.ctx.Err() != nil {
			// The record stays unevaluated: the commit stops there.
			return
		}
		r := &b.recs[i]
		p.evalIsolated(r, b.start+i, w)
		if !r.evaluated() {
			return
		}
		if r.att.ok && r.att.flex > w.bound {
			w.bound = r.att.flex
		}
	}
}

// evalIsolated is evalOne behind a worker's panic isolation: a panic is
// recovered into a per-candidate Diag, exactly isolating the poisoned
// candidate. Only pool workers recover — a panic escaping a worker
// goroutine would kill the process — while an inline evaluation lets
// it propagate to the caller, whose own recovery (resuming from a
// checkpoint, the server's job-level isolation) depends on seeing it.
func (p *pipeline) evalIsolated(r *candRec, idx int, w *worker) {
	defer func() {
		if rec := recover(); rec != nil {
			r.diag = &Diag{
				Kind: DiagPanic, Site: r.site, Cursor: idx,
				Allocation: p.sc.ev.allocation(r).String(),
				Message:    fmt.Sprint(rec),
				Stack:      trimStack(debug.Stack()),
			}
		}
	}()
	p.sc.evalOne(r, idx, w, &w.scratch)
}

// commitStage folds the range jobs strictly in candidate order through
// a reorder buffer keyed by range start.
func (p *pipeline) commitStage() {
	for b := range p.results {
		if p.stopped {
			// Drain: the scan already ended at an earlier candidate.
			continue
		}
		if b.start != p.next {
			p.stalls++
		}
		p.pending[b.start] = b
		for nb, ok := p.pending[p.next]; ok && !p.stopped; nb, ok = p.pending[p.next] {
			delete(p.pending, p.next)
			if p.commitBatch(nb) {
				select {
				case p.free <- nb:
				default:
				}
			}
		}
	}
}

// commitBatch folds one in-order range job, candidate by candidate,
// through the scan's commit, then republishes the bound if it rose. It
// reports whether the whole batch was committed.
func (p *pipeline) commitBatch(b *pipeBatch) bool {
	entry := p.sc.f.best()
	for i := range b.recs {
		if !p.sc.commit(b.start+i, &b.recs[i]) {
			p.stopped = true
			close(p.done)
			return false
		}
	}
	if f := p.sc.f.best(); f > entry {
		p.storeBound(f)
	}
	p.batches++
	p.next = b.start + len(b.recs)
	return true
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
