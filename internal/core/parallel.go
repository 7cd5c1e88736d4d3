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
// Options.Progress, say, or in a witness solve for an entry the front
// admits) stops the workers and propagates.
//
// workers <= 0 selects GOMAXPROCS; queue <= 0 selects 2 x workers
// range jobs of queue, and at most queue+workers range jobs are out at
// once. The run starts its workers and no other goroutine, and every
// worker has exited when it returns. With one worker the scan runs
// inline. Run with Request.Workers is the same under a context.
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
// ramp 4, 8, 16 lands the first commits quickly (low latency for
// Progress consumers and the settle stop), then levels off at 32
// candidates per job: at a few microseconds per candidate still about
// a tenth of a millisecond of work per channel handoff, and small
// enough to keep the ring's slots and the cancellation overshoot small.
// When progress reporting is on, the ramp is additionally capped at the
// progress interval.
func (o Options) batchSizeFor(k int) int {
	limit := 32
	if o.Progress != nil {
		limit = min(limit, o.progressEvery())
	}
	return min(4<<min(k, 3), limit)
}

// pipeBatch is one contiguous candidate range travelling through the
// pipeline: candidates start..start+n-1 of the cost-ordered
// enumeration, each given by its unit set (nw words in units), and,
// once a worker has evaluated them, their results in res — what the
// ordered commit folds. The rare result that carries more, the picks
// of an attempt the front may keep or a Diag, has a payload in pays. A
// batch is one slot of its run's ring, allocated the first time the run
// reaches the slot, for the largest range job over the spec's units.
// Once its job has committed, the producer refills units and res in
// place for the slot's next job; they never grow, and the payloads keep
// their storage. done marks a job a worker has handed back and the
// commit has not yet folded.
type pipeBatch struct {
	start int
	n     int
	units []uint64
	res   []candResult
	pays  []payload
	done  bool
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
	// resKept: the payload holds the attempt's picks.
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
// picks and a Diag.
type payload struct {
	picks []pick
	diag  *Diag
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

// put writes the evaluation in worker w's record as candidate i's
// result. An attempt above w's bound, the one it was implemented under,
// is one the front may keep: the payload copies its picks out of w's
// scratch, beside the record's Diag. An attempt at or below the bound
// is one the exact fold rejects too (see evaluate), and its picks stay
// behind.
func (b *pipeBatch) put(i int, w *worker) {
	r := &w.rec
	res := candResult{
		est: r.est, cost: r.att.cost, flex: r.att.flex,
		bindingNodes: r.bindingNodes, ecsTested: int32(r.ecsTested), bindingRuns: int32(r.bindingRuns),
		flags: flagIf(r.estimated, resEstimated) | flagIf(r.site == SiteImplement, resPassed) |
			flagIf(r.attempted, resAttempted) | flagIf(r.att.ok, resOK),
	}
	kept := r.attempted && r.att.ok && r.att.flex > w.bound
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
			pay.picks = append(pay.picks, r.att.picks...)
		}
		res.pay = int32(len(b.pays))
	}
	b.res[i] = res
}

// record makes r candidate i's commit record: its unit indices, decoded
// into r's previous buffer, and its result, whose attempt's picks alias
// the payload until the batch is recycled.
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
			r.att.picks = pay.picks
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

	// Producer state: the open range job and its size, and the jobs
	// opened so far.
	open    *pipeBatch
	curSize int
	emitted int

	// ring holds range job k in slot k mod len(ring), which is
	// cap(results): job k opens only once job k-len(ring) has committed
	// (batches counts the committed jobs), so at most len(ring) jobs are
	// out at once, the open one included, and no worker blocks handing
	// one back. A returned job waits in its slot, marked done, until
	// every earlier job has committed. The ring is per run: a payload's
	// picks point into this run's ECS table and configurations. rec is
	// the commit record every result is folded through.
	ring    []*pipeBatch
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
		ring:    make([]*pipeBatch, queue+workers),
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
// full. It reports whether the scan goes on. Once the run is cancelled
// it dispatches the open job as it is and stops: a worker leaves the
// job unevaluated, so the commit ends the scan at its first candidate
// at the latest.
func (p *pipeline) push(units []int) bool {
	b := p.open
	if b == nil {
		b = p.slot(p.emitted)
		// The source has counted this candidate, so its index is one
		// less.
		b.start = p.sc.possible - 1
		p.curSize = p.sc.opts.batchSizeFor(p.emitted)
		p.emitted++
		p.open = b
	}
	b.add(units, p.nw)
	cancelled := p.sc.ctx.Err() != nil
	if b.n < p.curSize && !cancelled {
		return true
	}
	p.open = nil
	return p.send(b) && !cancelled
}

// slot returns the ring's batch for range job k, empty: the slot's
// batch with its last job's results zeroed and payloads emptied, or, the
// first time the run reaches the slot, a new one sized for the largest
// range job. Job k-len(ring) must have committed.
func (p *pipeline) slot(k int) *pipeBatch {
	i := k % len(p.ring)
	b := p.ring[i]
	if b == nil {
		size := p.sc.opts.batchSizeFor(math.MaxInt)
		b = &pipeBatch{units: make([]uint64, size*p.nw), res: make([]candResult, size)}
		p.ring[i] = b
		return b
	}
	clear(b.res[:b.n])
	b.n, b.pays = 0, b.pays[:0]
	return b
}

// send hands b to the workers, then keeps going until the ring has a
// slot for the next job. Meanwhile it commits the ranges the workers
// hand back, so the scan's goroutine is the only one that folds. It
// reports whether the scan goes on; when a commit ends the scan, b is
// dropped.
func (p *pipeline) send(b *pipeBatch) bool {
	for b != nil || p.emitted-p.batches == len(p.ring) {
		jobs := p.jobs
		if b == nil {
			jobs = nil
		}
		select {
		case jobs <- b:
			p.maxBatch = max(p.maxBatch, b.n)
			p.highWater = max(p.highWater, len(p.jobs))
			b = nil
			// Yield once, after the first dispatch, so the first range
			// job starts before the producer fills the queue: on a
			// single-P runtime the scheduler's LIFO wakeup would run the
			// latest-readied worker first, and a late batch could trip
			// a cancellation before the first starts, collapsing the
			// anytime cursor to 0. Later sends fill the queue freely.
			if p.emitted == 1 {
				runtime.Gosched()
			}
		case r := <-p.results:
			if !p.receive(r) {
				return false
			}
		}
	}
	return true
}

// receive takes back a range job a worker finished, marks it done and
// commits, in candidate order, every done job from the ring's next
// slot on. It reports whether the scan goes on.
func (p *pipeline) receive(b *pipeBatch) bool {
	b.done = true
	next := p.ring[p.batches%len(p.ring)]
	if b != next {
		p.stalls++
	}
	for ; next != nil && next.done; next = p.ring[p.batches%len(p.ring)] {
		next.done = false
		if !p.commitBatch(next) {
			return false
		}
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
	return true
}

// finish dispatches the scan tail and commits until every range job
// has committed or the scan has stopped. The jobs still out then come
// back on results, which has room for all of them.
func (p *pipeline) finish() {
	if b := p.open; b != nil {
		p.open = nil
		p.send(b)
	}
	for !p.stopped && p.batches < p.emitted {
		p.receive(<-p.results)
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
// It is also why put may drop the picks of an attempt at or below the
// local bound: the exact fold's fcur is then at least the attempt's
// flexibility, so take rejects the attempt at its floor, or the front
// holds a point no costlier (costs arrive in nondecreasing order) with
// flexibility at least fcur, and admit's DominatesPoint rejects it.
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
		*r = candRec{units: b.unitSet(i, p.nw).AppendTo(r.units[:0])}
		p.evalIsolated(r, b.start+i, w)
		b.put(i, w)
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
