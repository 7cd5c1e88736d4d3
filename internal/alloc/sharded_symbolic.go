package alloc

import (
	"sync"
	"time"

	"repro/internal/boolfunc"
	"repro/internal/spec"
)

// EnumerateSymbolicShardedRange is EnumerateSymbolicRange across
// producers sharded BDD walkers. The characteristic function is built
// once; the walk only reads the Manager (cofactor and memoized
// satisfiability probes, no node construction), so all walkers share
// the one BDD with per-shard scratch. Lane addressing, the sentinel
// protocol, and the merge are the exact machinery of the bitset
// sharded scan — lane k of the BDD walk prunes to the same possible
// subsets in the same order — so the merged stream, range cursor
// included, is bit-identical to the single symbolic producer (and
// hence to the bitset scan). Scanned sums the per-shard visit counts
// plus the central empty-allocation check; MaxScan splits into
// per-shard visit budgets like the bitset scan's pop budgets. The
// explorers no longer use it; it stays only while the benchmark harness
// measures it.
func EnumerateSymbolicShardedRange(s *spec.Spec, opts Options, producers, start int, fn func(Candidate) bool) Stats {
	m, f, units := Symbolic(s)
	n := len(units)
	p := producers
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	stats := Stats{SearchSpace: SearchSpace(n), Producers: p}
	if !opts.IncludeUselessComm {
		f = m.Apply(boolfunc.And, f, commConstraint(s, m, units))
	}
	costs := make([]float64, n)
	for i, u := range units {
		costs[i] = u.Cost
	}

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
			symbolicShardWalk(&walkers[w], m, f, costs, n, w, p, budgets[w], wchans[w], done)
		}(w)
	}

	// The empty allocation is checked centrally, mirroring the single
	// producer's initial all-false visit.
	stats.Scanned++
	stop := false
	if m.Eval(f, make([]bool, n)) {
		stats.Possible++
		if stats.Possible > start && !fn(Candidate{Allocation: spec.Allocation{}, Cost: 0}) {
			stop = true
		}
	}
	if !stop && n > 0 {
		mergeLanes(units, p, &stats, start, fn, wchans)
	}
	close(done)
	wg.Wait()
	for i := range walkers {
		stats.Scanned += walkers[i].scanned
		stats.ProducerBusyNanos += walkers[i].busy
	}
	return stats
}

// symbolicShardWalk runs one symbolic producer: lane sentinels first
// (a pruned walk may never pop an unsatisfiable root, but the merge
// needs every lane's root record to gate activation), then the
// shard-scoped cost-ordered BDD walk.
func symbolicShardWalk(w *shardWalker, m *boolfunc.Manager, f *boolfunc.Node, costs []float64, n, shard, p, budget int, out chan<- laneRec, done <-chan struct{}) {
	defer close(out)
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
	if budget == 0 {
		// No per-shard visit budget at all: like a bitset walker with a
		// zero pop budget, produce nothing (closing the stream closes
		// every owned lane).
		return
	}
	var roots []int
	for k := shard; k < n; k += p {
		roots = append(roots, k)
	}
	if len(roots) == 0 {
		return
	}
	e := m.NewCostEnumShard(f, costs, roots)
	if budget > 0 {
		e.MaxVisits = budget
	}
	defer func() {
		w.scanned = e.Visited()
	}()
	assignment := make([]bool, n)
	for _, k := range roots {
		assignment[k] = true
		possible := m.Eval(f, assignment)
		assignment[k] = false
		if !send(laneRec{lane: k, sentinel: true, possible: possible, cost: costs[k], idx: []int{k}}) {
			return
		}
	}
	for {
		idx, cost, ok := e.Next()
		if !ok {
			return
		}
		if len(idx) > 1 {
			rec := laneRec{lane: idx[0], possible: true, cost: cost, idx: append([]int(nil), idx...)}
			if !send(rec) {
				return
			}
		}
		for _, l := range e.TakeDrained() {
			if !send(laneRec{lane: l, laneClose: true}) {
				return
			}
		}
	}
}
