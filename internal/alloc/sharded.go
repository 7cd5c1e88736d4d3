// Sharded candidate production: the cost-ordered subset scan split
// across P producer goroutines, re-serialized by a deterministic k-way
// merge into a stream that is candidate-for-candidate and
// cursor-for-cursor identical to the single-producer scan.
//
// # Shard addressing
//
// The extend/replace subset tree has a static top-level decomposition:
// the replace move only ever swaps the *last* index, so the minimum
// element of a subset is decided once, at its lane root. Lane k is the
// singleton {k} plus all its extend/replace descendants — exactly the
// subsets whose minimum unit index is k — and the n lanes partition
// the nonempty subsets. Walker w (of P) owns lanes w, w+P, w+2P, …: a
// static address, so the decomposition is identical for every run and
// every P.
//
// # Merge determinism
//
// Each walker runs one heap over its own lanes. Restricted to a single
// lane, its pop order equals the global scan's pop order restricted to
// that lane (pruning-free subtree, same comparator), so every lane's
// record sequence is a fixed, P-independent stream. The merge holds
// one head per lane and repeatedly emits the comparator-minimum head
// (subsetHeap.Less, the exact tie-break of the global heap): because
// the global heap's content is at all times the union of the per-lane
// frontiers, the comparator-minimum over lane heads is the global
// heap's next pop. The one non-local rule is lane *availability*: in
// the global scan the root {k+1} enters the heap only when {k} is
// popped (it is the replace child of {k}), so the merge activates lane
// k+1 exactly when it consumes lane k's root record — every lane's
// first record is a sentinel marking its root — or when lane k drains
// without ever delivering its sentinel (per-shard budget exhaustion).
// Everything else is local, hence the merged stream is bit-identical
// to the single producer's, including under equal-cost ties.
package alloc

import (
	"container/heap"
	"sync"
	"time"

	"repro/internal/bitset"
	"repro/internal/spec"
)

// walkerChanBuf is the per-walker output channel capacity. The merge
// drains exactly the stream it needs, so the buffer only smooths
// bursts; correctness does not depend on its size.
const walkerChanBuf = 256

// laneRec is one record of a walker stream. Every record names its
// lane; a lane's first record is its root sentinel (sent even when the
// root is not a possible allocation, because the merge gates the next
// lane's activation on it), and a laneClose record marks a lane fully
// walked.
type laneRec struct {
	lane      int
	laneClose bool
	sentinel  bool
	possible  bool
	cost      float64
	idx       []int
}

// mergeLane is the merge-side state of one lane: its routed-but-unread
// records, the current head, and the activation bookkeeping.
type mergeLane struct {
	q        []laneRec
	qh       int // index of the queue head within q
	head     laneRec
	has      bool
	active   bool
	closed   bool // no further records will arrive (queue may be nonempty)
	seenRoot bool // the root sentinel has been consumed
	notified bool // exhaustion has already activated the successor
}

// laneMerge restores the global enumeration order from P walker
// streams with a loser tree over the n lane heads, using the exact
// subsetHeap.Less comparator. See the package comment for why the
// result is bit-identical to the single-producer scan.
type laneMerge struct {
	lanes  []mergeLane
	wchans []chan laneRec
	owner  []int // lane -> walker stream index (lane % P)
	ls     []int // loser tree: ls[0] winner, internal nodes losers
	win    []int // scratch for full rebuilds
	stalls int
	dirty  bool // a lane other than the consumed winner changed state
}

func newLaneMerge(wchans []chan laneRec, n, p int) *laneMerge {
	m := &laneMerge{
		lanes:  make([]mergeLane, n),
		wchans: wchans,
		owner:  make([]int, n),
		ls:     make([]int, n),
		win:    make([]int, 2*n),
	}
	for l := range m.owner {
		m.owner[l] = l % p
	}
	m.activate(0)
	m.build()
	return m
}

// beats reports whether lane a's head precedes lane b's. It mirrors
// subsetHeap.Less exactly (heads of distinct lanes are distinct
// subsets, so the comparator is a strict total order); lanes without a
// head lose to every lane with one, ties among dead lanes break by
// index so the tournament stays a total order.
func (m *laneMerge) beats(a, b int) bool {
	la, lb := &m.lanes[a], &m.lanes[b]
	if !la.has || !lb.has {
		if la.has != lb.has {
			return la.has
		}
		return a < b
	}
	if la.head.cost != lb.head.cost {
		return la.head.cost < lb.head.cost
	}
	x, y := la.head.idx, lb.head.idx
	for k := 0; k < len(x) && k < len(y); k++ {
		if x[k] != y[k] {
			return x[k] > y[k]
		}
	}
	return len(x) > len(y)
}

// build recomputes the whole loser tree bottom-up. Used at startup and
// after lane activations (at most n times per enumeration); the hot
// path uses replay.
func (m *laneMerge) build() {
	n := len(m.lanes)
	for i := 0; i < n; i++ {
		m.win[n+i] = i
	}
	for t := n - 1; t >= 1; t-- {
		a, b := m.win[2*t], m.win[2*t+1]
		if m.beats(b, a) {
			a, b = b, a
		}
		m.win[t] = a
		m.ls[t] = b
	}
	m.ls[0] = m.win[1]
}

// replay reinserts leaf s after its element — the previous winner —
// was consumed: the classic O(log n) loser-tree walk, valid exactly
// because s's old element is absent from the internal nodes.
func (m *laneMerge) replay(s int) {
	cur := s
	for t := (s + len(m.lanes)) / 2; t >= 1; t /= 2 {
		if m.beats(m.ls[t], cur) {
			cur, m.ls[t] = m.ls[t], cur
		}
	}
	m.ls[0] = cur
}

// pull receives one record from walker stream w and routes it: data
// records append to their lane's queue, laneClose records (and a
// stream close, which closes every lane the walker owns) mark lanes
// closed.
func (m *laneMerge) pull(w int) {
	var rec laneRec
	var ok bool
	select {
	case rec, ok = <-m.wchans[w]:
	default:
		// The producer has not caught up: account the stall, then wait.
		m.stalls++
		rec, ok = <-m.wchans[w]
	}
	if !ok {
		m.wchans[w] = nil
		for l := range m.lanes {
			if m.owner[l] == w {
				m.lanes[l].closed = true
			}
		}
		return
	}
	if rec.laneClose {
		m.lanes[rec.lane].closed = true
		return
	}
	L := &m.lanes[rec.lane]
	L.q = append(L.q, rec)
}

// fetch makes lane l's head current: from its queue, else by pulling
// its owner's stream until a record for l (or its closure) arrives.
// A lane that turns out exhausted without ever delivering its sentinel
// activates its successor here — the budget-truncation counterpart of
// sentinel-gated activation.
func (m *laneMerge) fetch(l int) {
	L := &m.lanes[l]
	for !L.has && L.active {
		if L.qh < len(L.q) {
			L.head = L.q[L.qh]
			L.q[L.qh] = laneRec{}
			L.qh++
			if L.qh == len(L.q) {
				L.q, L.qh = L.q[:0], 0
			}
			L.has = true
			return
		}
		if L.closed {
			if !L.seenRoot && !L.notified {
				L.notified = true
				m.activate(l + 1)
			}
			return
		}
		if m.wchans[m.owner[l]] == nil {
			// Stream already gone (records routed before closure).
			L.closed = true
			continue
		}
		m.pull(m.owner[l])
	}
}

// activate opens lane l for merging. Activation cascades: fetching the
// new lane can discover further closed lanes and activate their
// successors in turn.
func (m *laneMerge) activate(l int) {
	if l >= len(m.lanes) || m.lanes[l].active {
		return
	}
	m.lanes[l].active = true
	m.dirty = true
	m.fetch(l)
}

// next returns the next record of the merged stream — the global
// enumeration order — or ok=false when every lane has drained.
func (m *laneMerge) next() (laneRec, bool) {
	w := m.ls[0]
	if !m.lanes[w].has {
		return laneRec{}, false
	}
	rec := m.lanes[w].head
	m.lanes[w].has = false
	m.lanes[w].head = laneRec{}
	m.dirty = false
	if rec.sentinel {
		m.lanes[w].seenRoot = true
		m.activate(w + 1)
	}
	m.fetch(w)
	if m.dirty {
		m.build()
	} else {
		m.replay(w)
	}
	return rec, true
}

// shardBudgets splits a MaxScan budget across p walkers: the empty
// subset is scanned centrally, the remaining pop budget is divided as
// evenly as possible (low shards take the remainder). -1 means
// unbounded. The split keeps the total effort bound exact — early
// stops may still overshoot Scanned, as documented since the range
// scans of PR 5.
func shardBudgets(maxScan, p int) []int {
	out := make([]int, p)
	if maxScan <= 0 {
		for i := range out {
			out[i] = -1
		}
		return out
	}
	total := maxScan - 1
	each, extra := total/p, total%p
	for i := range out {
		out[i] = each
		if i < extra {
			out[i]++
		}
	}
	return out
}

// shardWalker accumulates one producer goroutine's statistics; the
// aggregator reads them only after the goroutine exits.
type shardWalker struct {
	scanned int
	pruned  int
	busy    int64
}

// run walks lanes shard, shard+p, … with a single local heap, sending
// records in pop order on out. Per-lane pending counts detect the
// moment a lane is fully walked (laneClose). A close of done aborts.
func (w *shardWalker) run(env *scanEnv, opts Options, shard, p, budget int, out chan<- laneRec, done <-chan struct{}) {
	defer close(out)
	n := env.n
	started := time.Now() //flexvet:ignore FX006 -- wall-clock producer-busy gauge, telemetry only
	var sendWait time.Duration
	defer func() {
		w.busy = int64(time.Since(started) - sendWait)
	}()
	send := func(rec laneRec) bool {
		select {
		case out <- rec:
			return true
		default:
		}
		t0 := time.Now() //flexvet:ignore FX006 -- blocked-send accounting for the busy gauge
		select {
		case out <- rec:
			sendWait += time.Since(t0)
			return true
		case <-done:
			return false
		}
	}

	sc := env.newScratch()
	pool := sync.Pool{New: func() any { return &subset{bits: bitset.New(n)} }}
	h := &subsetHeap{}
	pending := make([]int, n)
	for k := shard; k < n; k += p {
		root := pool.Get().(*subset)
		root.cost = env.units[k].Cost
		root.idx = append(root.idx[:0], k)
		root.bits.Clear()
		root.bits.Add(k)
		heap.Push(h, root)
		pending[k] = 1
	}
	for h.Len() > 0 {
		if budget >= 0 && w.scanned >= budget {
			return
		}
		cur := heap.Pop(h).(*subset)
		w.scanned++
		lane := cur.idx[0]
		if m := cur.idx[len(cur.idx)-1]; m+1 < n {
			heap.Push(h, env.child(&pool, cur, false))
			pending[lane]++
			if len(cur.idx) > 1 {
				// The replace child of a lane root would swap the
				// minimum element out: that subset is another lane's
				// root, owned by whichever walker holds that lane.
				heap.Push(h, env.child(&pool, cur, true))
				pending[lane]++
			}
		}
		possible := false
		switch {
		case !opts.IncludeUselessComm && sc.uselessComm(cur):
			w.pruned++
		case !sc.rootSupportable(cur.idx):
		default:
			possible = true
		}
		if possible || len(cur.idx) == 1 {
			rec := laneRec{
				lane:     lane,
				sentinel: len(cur.idx) == 1,
				possible: possible,
				cost:     cur.cost,
				idx:      append([]int(nil), cur.idx...),
			}
			if !send(rec) {
				pool.Put(cur)
				return
			}
		}
		pending[lane]--
		if pending[lane] == 0 {
			if !send(laneRec{lane: lane, laneClose: true}) {
				pool.Put(cur)
				return
			}
		}
		pool.Put(cur)
	}
}

// EnumerateShardedRange is EnumerateRange across producers sharded
// walker goroutines with the same range-cursor contract: start indexes
// possible candidates, and the stream past it is bit-identical to the
// single producer's. producers is clamped to [1, number of units]; one
// producer still runs the full walker/merge machinery. The explorers no
// longer use it; it stays only while the benchmark harness measures it.
func EnumerateShardedRange(s *spec.Spec, opts Options, producers, start int, fn func(Candidate) bool) Stats {
	env := newScanEnv(s)
	n := env.n
	p := producers
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	stats := Stats{SearchSpace: SearchSpace(n), Producers: p}

	wchans := make([]chan laneRec, p)
	for i := range wchans {
		wchans[i] = make(chan laneRec, walkerChanBuf)
	}
	done := make(chan struct{})
	budgets := shardBudgets(opts.MaxScan, p)
	walkers := make([]shardWalker, p)
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			walkers[w].run(env, opts, w, p, budgets[w], wchans[w], done)
		}(w)
	}

	// The empty allocation precedes every lane in the cost order and is
	// scanned centrally, exactly as in the direct scan.
	sc := env.newScratch()
	stats.Scanned++
	stop := false
	if sc.rootSupportable(nil) {
		stats.Possible++
		if stats.Possible > start && !fn(Candidate{Allocation: spec.Allocation{}, Cost: 0}) {
			stop = true
		}
	}
	if !stop && n > 0 {
		mergeLanes(env.units, p, &stats, start, fn, wchans)
	}
	close(done)
	wg.Wait()
	for i := range walkers {
		stats.Scanned += walkers[i].scanned
		stats.PrunedComm += walkers[i].pruned
		stats.ProducerBusyNanos += walkers[i].busy
	}
	return stats
}

// mergeLanes drains the walker streams through the lane-gated loser
// tree, counting Possible and materializing in-range candidates for
// fn. Shared by the bitset and symbolic sharded enumerators. Returns
// false when fn stopped the stream early.
func mergeLanes(units []Unit, p int, stats *Stats, start int, fn func(Candidate) bool, wchans []chan laneRec) bool {
	m := newLaneMerge(wchans, len(units), p)
	defer func() { stats.MergeStalls = m.stalls }()
	for {
		rec, ok := m.next()
		if !ok {
			return true
		}
		if !rec.possible {
			continue
		}
		stats.Possible++
		if stats.Possible <= start {
			continue
		}
		a := make(spec.Allocation, len(rec.idx))
		for _, k := range rec.idx {
			a[units[k].ID] = true
		}
		if !fn(Candidate{Allocation: a, Cost: rec.cost}) {
			return false
		}
	}
}
