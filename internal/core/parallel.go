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

	"repro/internal/bitset"
	"repro/internal/spec"
)

// ExploreParallel runs EXPLORE with the per-candidate work — the
// flexibility estimation and the implementation construction — fanned
// out over a pool of worker goroutines while keeping the resulting
// front bit-for-bit identical to the sequential explorer.
//
// It is the sequential scan with a worker pool beside it: the caller's
// goroutine chunks the cost-ordered enumeration into contiguous
// candidate ranges (adaptive size) and hands them to the workers, which
// evaluate each range against a locally cached scalar flexibility
// bound. Between hand-offs the same goroutine takes finished ranges
// back, reassembles them in candidate order and folds every candidate
// through the same per-candidate commit the sequential scan runs.
// Ranges pay the channel handoff once per range instead of once per
// candidate, and the shared bound is republished once per committed
// range instead of once per implementation.
//
// A worker may act on a stale (i.e. lower) bound, which only causes
// extra implementation attempts: the commit re-checks each attempt
// against the exact bound, so fronts, cursors, termination reasons and
// all semantic counters equal the sequential run's (see
// pipeline.evaluate for the argument). A panicking evaluation is
// recovered in its worker and recorded as a Diag in Stats, and the
// candidate is skipped; a panic on the caller's goroutine (in
// Options.Progress, say) stops the workers and propagates.
//
// workers <= 0 selects GOMAXPROCS; queue <= 0 selects 2 x workers
// range jobs of look-ahead. The run starts its workers and no other
// goroutine, and every worker has exited when it returns. With one
// worker the scan runs inline. Run with Request.Workers is the same
// under a context.
func ExploreParallel(s *spec.Spec, opts Options, workers, queue int) *Result {
	return explore(context.Background(), s, opts, workers, queue)
}

// explore is ExploreParallel under ctx, the pooled or inline EXPLORE.
func explore(ctx context.Context, s *spec.Spec, opts Options, workers, queue int) *Result {
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
// pipeline: candidates start..start+n-1 of the cost-ordered
// enumeration, each given by its unit set (nw words in units), and,
// once a worker has evaluated them, their results in res — what the
// ordered commit folds. The rare result that carries more, an attempt
// the front may keep or a Diag, has a payload in pays. A batch is
// allocated once, for the largest range job over the spec's units, and
// goes back to its run's free list once fully committed: the producer
// refills units and res in place, which never grow, and the payloads
// keep their storage.
type pipeBatch struct {
	start int
	n     int
	units []uint64
	res   []candResult
	pays  []payload
}

// candResult is one candidate's evaluation as its batch carries it: the
// estimate, the attempt's cost and flexibility, the solver effort of
// its implementation and what happened (flags). pay is one more than
// the index of its payload in the batch, or 0 for none. ecsTested and
// bindingRuns count one candidate's ECSs and solver runs, which stay far
// below 2^31: the ECSs are listed in memory, and each solver run costs
// at least a microsecond.
type candResult struct {
	est, cost, flex float64
	bindingNodes    int
	ecsTested       int32
	bindingRuns     int32
	pay             int32
	flags           resultFlags
}

type resultFlags uint8

const (
	resEstimated resultFlags = 1 << iota
	// resPassed: the candidate passed the worker's bound and reached
	// the implement failpoint.
	resPassed
	resAttempted
	resOK
	// resKept: the payload holds the attempt's implemented set and
	// picks.
	resKept
)

func flagIf(on bool, f resultFlags) resultFlags {
	if on {
		return f
	}
	return 0
}

func (res *candResult) has(f resultFlags) bool { return res.flags&f != 0 }

// payload is what a result carries besides its scalars: an attempt's
// implemented set and picks, and a Diag.
type payload struct {
	implemented bitset.Set
	picks       []pick
	diag        *Diag
}

// unitSet returns candidate i's unit set, a window of b.units.
func (b *pipeBatch) unitSet(i, nw int) bitset.Set {
	return bitset.Of(b.units[i*nw : (i+1)*nw : (i+1)*nw])
}

// add appends a candidate, given by its unit indices, as its unit set.
func (b *pipeBatch) add(units []int, nw int) {
	set := b.unitSet(b.n, nw)
	set.Clear()
	for _, k := range units {
		set.Add(k)
	}
	b.n++
}

// put writes the evaluation in the worker's record r as candidate i's
// result. keep is the bound r's attempt was implemented under: an
// attempt above it wrote its implemented set and picks, which the
// payload copies, beside r's Diag.
func (b *pipeBatch) put(i int, r *candRec, keep float64) {
	res := candResult{
		est: r.est, cost: r.att.cost, flex: r.att.flex,
		bindingNodes: r.bindingNodes, ecsTested: int32(r.ecsTested), bindingRuns: int32(r.bindingRuns),
		flags: flagIf(r.estimated, resEstimated) | flagIf(r.site == SiteImplement, resPassed) |
			flagIf(r.attempted, resAttempted) | flagIf(r.att.ok, resOK),
	}
	kept := r.attempted && r.att.ok && r.att.flex > keep
	if kept || r.diag != nil {
		if len(b.pays) == cap(b.pays) {
			b.pays = append(b.pays, payload{})
		} else {
			b.pays = b.pays[:len(b.pays)+1]
		}
		pay := &b.pays[len(b.pays)-1]
		pay.picks, pay.diag = pay.picks[:0], r.diag
		if kept {
			res.flags |= resKept
			pay.implemented.CopyFrom(r.att.implemented)
			pay.picks = append(pay.picks, r.att.picks...)
		}
		res.pay = int32(len(b.pays))
	}
	b.res[i] = res
}

// record makes r candidate i's commit record: its unit indices, decoded
// into r's previous buffer, and its result, whose attempt's implemented
// set and picks alias the payload until the batch is recycled.
func (b *pipeBatch) record(i, nw int, r *candRec) {
	res := &b.res[i]
	*r = candRec{
		units:     b.unitSet(i, nw).AppendTo(r.units[:0]),
		site:      SiteEstimate,
		est:       res.est,
		estimated: res.has(resEstimated),
		attempted: res.has(resAttempted),
		att:       attempt{ok: res.has(resOK), cost: res.cost, flex: res.flex},
		ecsTested: int(res.ecsTested), bindingRuns: int(res.bindingRuns), bindingNodes: res.bindingNodes,
	}
	if res.has(resPassed) {
		r.site = SiteImplement
	}
	if res.pay > 0 {
		pay := &b.pays[res.pay-1]
		r.diag = pay.diag
		if res.has(resKept) {
			r.att.implemented, r.att.picks = pay.implemented, pay.picks
		}
	}
}

// pipeline is the worker pool of a parallel scan. The workers share
// only the channels, done, bound and busy; every other field belongs to
// the scan's goroutine, which produces the range jobs and commits them.
type pipeline struct {
	sc      *scan
	jobs    chan *pipeBatch
	results chan *pipeBatch
	// done is closed when the scan stops early or the pool is torn
	// down; workers treat it as a fast-path skip.
	done chan struct{}
	wg   sync.WaitGroup
	// nw is the number of words of a candidate's unit set.
	nw int

	// Producer state: the open range job and its size; the jobs not yet
	// taken back; and the committed batches to refill (per run: a
	// payload's picks point into this run's memo).
	open      *pipeBatch
	curSize   int
	emitted   int
	cancelled bool
	inflight  int
	free      []*pipeBatch

	// Reorder buffer: finished ranges wait in pending for next. rec is
	// the commit record every result is folded through.
	next    int
	pending map[int]*pipeBatch
	stopped bool
	rec     candRec

	// Gauges (see PipelineStats).
	stalls, batches, publishes, highWater, maxBatch int

	// bound is the best implemented flexibility (math.Float64bits),
	// written once per committed batch, read by workers once per
	// batch. A stale read only admits extra implementation attempts;
	// the commit re-checks against the exact bound.
	bound atomic.Uint64
	busy  atomic.Int64
}

// startPool starts the workers of a parallel scan. The caller must
// stop the pool on every way out of the scan.
func (sc *scan) startPool(workers, queue int) *pipeline {
	if queue <= 0 {
		queue = 2 * workers
	}
	p := &pipeline{
		sc:      sc,
		jobs:    make(chan *pipeBatch, queue),
		results: make(chan *pipeBatch, queue+workers),
		done:    make(chan struct{}),
		nw:      bitset.WordsFor(len(sc.ev.units)),
		next:    sc.res.Cursor,
		pending: map[int]*pipeBatch{},
	}
	sc.pool = p
	sc.res.Stats.Pipeline = PipelineStats{Workers: workers, QueueDepth: queue}
	p.storeBound(sc.f.best())

	p.wg.Add(workers)
	for range workers {
		go func() {
			defer p.wg.Done()
			w := worker{scratch: sc.ev.evalScratch()}
			for b := range p.jobs {
				p.evaluate(b, &w)
				p.results <- b
			}
		}()
	}
	return p
}

// push writes a candidate's unit indices, borrowed from the source,
// into the open range job as its unit set, and dispatches the job when
// full. It reports whether the scan goes on.
func (p *pipeline) push(units []int) bool {
	if p.sc.ctx.Err() != nil {
		p.cancelled = true
		return false
	}
	b := p.open
	if b == nil {
		b = p.take()
		// The source has counted this candidate, so its index is one
		// less.
		b.start = p.sc.possible - 1
		p.curSize = p.sc.opts.batchSizeFor(p.emitted)
		p.open = b
	}
	b.add(units, p.nw)
	if b.n < p.curSize {
		return true
	}
	p.emitted++
	p.open = nil
	return p.send(b)
}

// take returns an empty batch for the next range job: a recycled one
// when the free list has one, its last job's results zeroed, else a new
// one sized for the largest range job.
func (p *pipeline) take() *pipeBatch {
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		clear(b.res[:b.n])
		b.n, b.pays = 0, b.pays[:0]
		return b
	}
	size := p.sc.opts.batchSizeFor(math.MaxInt)
	return &pipeBatch{units: make([]uint64, size*p.nw), res: make([]candResult, size)}
}

// send hands b to the workers. While it waits for room it commits the
// ranges the workers hand back, so the scan's goroutine is the only
// one that folds. It reports whether the scan goes on; when a commit
// ends the scan, b is dropped.
func (p *pipeline) send(b *pipeBatch) bool {
	for {
		jobs := p.jobs
		if p.inflight == cap(p.results) {
			// Take a range back first: with results holding every job
			// in flight, no worker blocks on it, even once the scan
			// has stopped taking results.
			jobs = nil
		}
		select {
		case jobs <- b:
			p.inflight++
			p.maxBatch = max(p.maxBatch, b.n)
			p.highWater = max(p.highWater, len(p.jobs))
			// Yield once, after the first dispatch, so the first range
			// job starts before the producer fills the queue: on a
			// single-P runtime the scheduler's LIFO wakeup would run the
			// latest-readied worker first, and a late batch could trip
			// a cancellation before the first starts, collapsing the
			// anytime cursor to 0. Later sends fill the queue freely.
			if p.emitted == 1 {
				runtime.Gosched()
			}
			return true
		case r := <-p.results:
			if !p.receive(r) {
				return false
			}
		}
	}
}

// receive takes back a range job a worker finished and commits, in
// candidate order through the reorder buffer, every range that is now
// next. It reports whether the scan goes on.
func (p *pipeline) receive(b *pipeBatch) bool {
	p.inflight--
	if p.stopped {
		// The scan already ended at an earlier candidate.
		return false
	}
	if b.start != p.next {
		p.stalls++
	}
	p.pending[b.start] = b
	for nb, ok := p.pending[p.next]; ok; nb, ok = p.pending[p.next] {
		delete(p.pending, p.next)
		if !p.commitBatch(nb) {
			return false
		}
		p.free = append(p.free, nb)
	}
	return true
}

// commitBatch folds one in-order range job, candidate by candidate,
// through the scan's commit, then republishes the bound if it rose. It
// reports whether the scan goes on.
func (p *pipeline) commitBatch(b *pipeBatch) bool {
	entry := p.sc.f.best()
	for i := range b.n {
		b.record(i, p.nw, &p.rec)
		if !p.sc.commit(b.start+i, &p.rec) {
			p.stopped = true
			close(p.done)
			return false
		}
	}
	if f := p.sc.f.best(); f > entry {
		p.storeBound(f)
	}
	p.batches++
	p.next = b.start + b.n
	return true
}

// finish dispatches the scan tail and commits until no range job is in
// flight, then settles a cancellation only the producer observed.
func (p *pipeline) finish() {
	if b := p.open; b != nil && !p.cancelled {
		// A partial final range. If send fails the scan already stopped
		// and the tail is irrelevant.
		p.open = nil
		p.send(b)
	}
	for p.inflight > 0 {
		p.receive(<-p.results)
	}
	if p.cancelled && !p.stopped {
		// Every in-flight range had completed: the scan still ends
		// interrupted, prefix-exact at the last committed candidate.
		p.sc.res.Interrupted, p.sc.res.Reason = true, reasonFor(p.sc.ctx)
	}
}

// stop ends the pool on every way out of the scan, a panic on the
// scan's goroutine included: the workers skip the ranges they still
// hold, and stop returns once each has exited.
func (p *pipeline) stop() {
	if !p.stopped {
		close(p.done)
	}
	close(p.jobs)
	p.wg.Wait()
}

// gauges reports the pool's contention gauges.
func (p *pipeline) gauges(ps *PipelineStats) {
	ps.QueueHighWater = p.highWater
	ps.CommitStalls = p.stalls
	ps.BusyNanos = p.busy.Load()
	ps.BatchSize = p.maxBatch
	ps.BatchesCommitted = p.batches
	ps.BoundPublishes = p.publishes
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
	p.publishes++
}

// worker is a pool worker's private state: its scalar flexibility
// bound, the record it evaluates every candidate in, like the inline
// scan's, and its evaluation scratch.
type worker struct {
	bound float64
	rec   candRec
	scratch
}

func (w *worker) prune(_ *candRec, est float64) bool { return est <= w.bound }

// keepAbove is the local bound, which is never above the exact fold's
// fcur at the candidate (see evaluate), so an attempt it drops the picks
// of is one the exact fold rejects too.
func (w *worker) keepAbove() float64 { return w.bound }

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
	r := &w.rec
	for i := range b.n {
		select {
		case <-p.done:
			// The scan ended at an earlier candidate, or the pool is
			// torn down: the range goes back unexamined.
			return
		default:
		}
		if p.sc.ctx.Err() != nil {
			// The result stays unevaluated: the commit stops there.
			return
		}
		r.reset(b.unitSet(i, p.nw).AppendTo(r.units[:0]))
		p.evalIsolated(r, b.start+i, w)
		b.put(i, r, w.bound)
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

// trimStack bounds a recovered panic's stack trace so Stats diags stay
// checkpoint-friendly.
func trimStack(stack []byte) string {
	const max = 2048
	if len(stack) > max {
		return string(stack[:max]) + "\n...[truncated]"
	}
	return string(stack)
}
