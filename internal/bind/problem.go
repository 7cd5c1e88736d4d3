package bind

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/hgraph"
	"repro/internal/sched"
	"repro/internal/spec"
)

// Problem is a flattened problem graph prepared for binding in index
// space: its leaves (in the flattening's vertex order), each with its
// period and its mapping candidates as indices into the spec's
// Resources, plus the dependence adjacency over leaf indices. Solve,
// MinLatency and Verify run on it without touching a string-keyed map;
// a binding is a []int32 holding one resource index per leaf.
//
// A Problem is immutable after NewProblem and safe for concurrent use;
// the mutable side of a call lives in a Scratch each goroutine owns.
// Its leaves are shared: the problems of one spec.ProblemSpace all read
// the space's entries.
type Problem struct {
	res    *bitset.Indexer[hgraph.ID]
	leaves []*spec.ProblemLeaf
	// nbrs lists, per leaf, the leaves it shares a dependence with (in
	// edge order, both directions): leaf i's are nbrs[off[i]:off[i+1]].
	nbrs, off []int32
	// edges are the dependences as leaf-index pairs, in the
	// flattening's edge order.
	edges [][2]int32
}

// NewProblem builds the binding problem of a flattening given in index
// space: its leaves, over the resource index res, and its dependences
// as pairs of indices into leaves (spec.ProblemSpace.Flatten's result).
// The problem keeps both slices.
func NewProblem(res *bitset.Indexer[hgraph.ID], leaves []*spec.ProblemLeaf, edges [][2]int32) *Problem {
	n, m := len(leaves), len(edges)
	// One slab holds the neighbour lists, then the offsets.
	slab := make([]int32, 2*m+n+1)
	p := &Problem{res: res, leaves: leaves, nbrs: slab[:2*m], off: slab[2*m:], edges: edges}
	for _, e := range edges {
		p.off[e[0]+1]++
		p.off[e[1]+1]++
	}
	for i := range n {
		p.off[i+1] += p.off[i]
	}
	// Fill each leaf's list in edge order, counting its entries in
	// off[i] (the list's start, for now), then restore the starts.
	for _, e := range edges {
		p.nbrs[p.off[e[0]]] = e[1]
		p.off[e[0]]++
		p.nbrs[p.off[e[1]]] = e[0]
		p.off[e[1]]++
	}
	for i := n; i > 0; i-- {
		p.off[i] = p.off[i-1]
	}
	p.off[0] = 0
	return p
}

// Prepare builds the index-space form of the flattened problem graph fp
// of s: NewProblem over a binding table of fp's vertices. Mapping edges
// onto resources outside s.Resources() are dropped, as they can never
// be present in a view.
func Prepare(s *spec.Spec, fp *hgraph.FlatGraph) *Problem {
	ids := make([]hgraph.ID, len(fp.Vertices))
	pos := make(map[hgraph.ID]int32, len(ids))
	for i, v := range fp.Vertices {
		ids[i] = v.ID
		pos[v.ID] = int32(i)
	}
	tab := s.ProblemLeaves(ids)
	leaves := make([]*spec.ProblemLeaf, len(tab))
	for i := range tab {
		leaves[i] = &tab[i]
	}
	// An edge endpoint outside the flattening cannot occur; like the
	// historical solver, it would read as leaf 0.
	edges := make([][2]int32, len(fp.Edges))
	for k, e := range fp.Edges {
		edges[k] = [2]int32{pos[e.From], pos[e.To]}
	}
	return NewProblem(s.Resources(), leaves, edges)
}

// Binding returns the map form of an index binding b of p.
func (p *Problem) Binding(b []int32) Binding {
	m := make(Binding, len(b))
	for i, r := range b {
		m[p.leaves[i].ID] = p.res.At(int(r))
	}
	return m
}

// Scratch is the reusable state of Solve, MinLatency and Verify: the
// call's search state, per-leaf search arrays and per-resource task
// lists, sized on demand. A call overwrites it, so each goroutine owns
// its own; the zero value is ready to use.
type Scratch struct {
	q        search
	cnt      []int32
	order    []int32
	assigned []int32
	best     []int32
	minLat   []float64
	suffix   []float64
	// tasks holds, per resource index, the timed load of the binding
	// under construction; every list is empty between calls.
	tasks [][]sched.Task
}

func (sc *Scratch) grow(n, nres int) {
	if cap(sc.cnt) < n {
		sc.cnt = make([]int32, n)
		sc.order = make([]int32, n)
		sc.assigned = make([]int32, n)
		sc.best = make([]int32, n)
		sc.minLat = make([]float64, n)
		sc.suffix = make([]float64, n+1)
	}
	sc.cnt, sc.order, sc.assigned, sc.best = sc.cnt[:n], sc.order[:n], sc.assigned[:n], sc.best[:n]
	sc.minLat, sc.suffix = sc.minLat[:n], sc.suffix[:n+1]
	if len(sc.tasks) < nres {
		sc.tasks = append(sc.tasks, make([][]sched.Task, nres-len(sc.tasks))...)
	}
}

// Search is the outcome of Solve or MinLatency.
type Search struct {
	// Binding holds one resource index per leaf, nil when no binding was
	// found. It is the scratch's own, valid until its next use.
	Binding []int32
	// Nodes is the number of assignments tried (search effort).
	Nodes int
	// Truncated reports that MaxNodes stopped the search before it
	// could prove infeasibility.
	Truncated bool
}

// search is one Solve or MinLatency call, kept in its Scratch.
type search struct {
	p    *Problem
	av   *spec.ArchView
	opts Options
	sc   *Scratch
	res  Search
	// MinLatency's incumbent (bestCost < 0: none yet).
	bestCost float64
}

// begin resets sc's search state for a call of p on av.
func (sc *Scratch) begin(p *Problem, av *spec.ArchView, opts Options, bestCost float64) *search {
	q := &sc.q
	q.p, q.av, q.opts, q.sc = p, av, opts, sc
	q.res, q.bestCost = Search{}, bestCost
	return q
}

// start sizes the scratch, counts each leaf's present candidates (its
// candidate set's intersection with the present set) and fixes the
// search order. It reports false, before any node, when some leaf has
// no present candidate.
func (q *search) start() bool {
	p, sc := q.p, q.sc
	sc.grow(len(p.leaves), p.res.Len())
	present := q.av.PresentSet()
	for i, l := range p.leaves {
		n := int32(l.Res.IntersectionCount(present))
		if n == 0 {
			return false
		}
		sc.cnt[i] = n
		sc.assigned[i] = -1
	}
	p.mrvOrder(sc.cnt, sc.order)
	return true
}

// mrvOrder fills order with the leaf indices, most constrained (fewest
// present candidates) first, ties by leaf ID for determinism.
func (p *Problem) mrvOrder(cnt, order []int32) {
	for i := range order {
		order[i] = int32(i)
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if cnt[a] < cnt[b] || (cnt[a] == cnt[b] && p.leaves[a].Rank < p.leaves[b].Rank) {
				break
			}
			order[j-1], order[j] = b, a
		}
	}
}

// try counts one node for binding leaf i to candidate c and reports
// whether the assignment is consistent with the bound neighbours and
// the timing policy; a consistent timed assignment has pushed its task
// onto the resource's list (undo pops it). It returns stop when the
// node bound is exhausted.
func (q *search) try(i int32, c spec.Candidate) (ok, stop bool) {
	if q.opts.MaxNodes > 0 && q.res.Nodes >= q.opts.MaxNodes {
		q.res.Truncated = true
		return false, true
	}
	q.res.Nodes++
	sc := q.sc
	// Communication feasibility against already-bound neighbours.
	for _, nb := range q.p.nbrs[q.p.off[i]:q.p.off[i+1]] {
		if r := sc.assigned[nb]; r >= 0 && !q.av.CanCommunicateIndex(int(c.Res), int(r)) {
			return false, false
		}
	}
	// Timing feasibility of the partial load on the resource. All
	// policies are monotone in the task set, so pruning is sound.
	if l := q.p.leaves[i]; l.Period > 0 {
		ts := append(sc.tasks[c.Res], sched.Task{ID: string(l.ID), WCET: c.Lat, Period: l.Period})
		sc.tasks[c.Res] = ts
		if !q.opts.Timing.test(ts) {
			sc.tasks[c.Res] = ts[:len(ts)-1]
			return false, false
		}
	}
	sc.assigned[i] = c.Res
	return true, false
}

// undo reverts a consistent assignment of leaf i to c.
func (q *search) undo(i int32, c spec.Candidate) {
	sc := q.sc
	sc.assigned[i] = -1
	if q.p.leaves[i].Period > 0 {
		ts := sc.tasks[c.Res]
		sc.tasks[c.Res] = ts[:len(ts)-1]
	}
}

// Solve searches for a feasible timed binding of p onto the view av:
// backtracking over the leaves in MRV order, each leaf's present
// candidates in resource-ID order, so the first binding found is
// deterministic. sc must not be shared with a concurrent call.
func (p *Problem) Solve(av *spec.ArchView, opts Options, sc *Scratch) (Search, bool) {
	q := sc.begin(p, av, opts, 0)
	if !q.start() {
		return q.res, false
	}
	ok := q.solve(0)
	if ok {
		q.res.Binding = sc.assigned
		for _, r := range sc.assigned {
			sc.tasks[r] = sc.tasks[r][:0]
		}
	}
	return q.res, ok
}

func (q *search) solve(k int) bool {
	if k == len(q.p.leaves) {
		return true
	}
	i := q.sc.order[k]
	for _, c := range q.p.leaves[i].Cands {
		if !q.av.PresentIndex(int(c.Res)) {
			continue
		}
		ok, stop := q.try(i, c)
		if stop {
			return false
		}
		if !ok {
			continue
		}
		if q.solve(k + 1) {
			return true
		}
		q.undo(i, c)
	}
	return false
}

// MinLatency searches for the feasible binding of p onto av that
// minimizes the total mapped execution latency: branch-and-bound over
// Solve's constraint model and search order, bounded below by each
// unbound leaf's cheapest present candidate.
func (p *Problem) MinLatency(av *spec.ArchView, opts Options, sc *Scratch) (Search, bool) {
	q := sc.begin(p, av, opts, -1)
	if !q.start() {
		return q.res, false
	}
	for i := range p.leaves {
		first := true
		for _, c := range p.leaves[i].Cands {
			if av.PresentIndex(int(c.Res)) && (first || c.Lat < sc.minLat[i]) {
				sc.minLat[i], first = c.Lat, false
			}
		}
	}
	// Suffix sums of minimal latencies along the search order.
	n := len(p.leaves)
	sc.suffix[n] = 0
	for k := n - 1; k >= 0; k-- {
		sc.suffix[k] = sc.suffix[k+1] + sc.minLat[sc.order[k]]
	}
	q.minimize(0, 0)
	if q.bestCost < 0 {
		return q.res, false
	}
	q.res.Binding = sc.best
	return q.res, true
}

func (q *search) minimize(k int, acc float64) {
	sc := q.sc
	if q.bestCost >= 0 && acc+sc.suffix[k] >= q.bestCost {
		return // bound
	}
	if k == len(q.p.leaves) {
		q.bestCost = acc
		copy(sc.best, sc.assigned)
		return
	}
	i := sc.order[k]
	for _, c := range q.p.leaves[i].Cands {
		if !q.av.PresentIndex(int(c.Res)) {
			continue
		}
		ok, stop := q.try(i, c)
		if stop {
			return
		}
		if !ok {
			continue
		}
		q.minimize(k+1, acc+c.Lat)
		q.undo(i, c)
	}
}

// Verify checks a complete index binding b of p against the paper's
// feasibility rules and the timing policy on the view av, reporting the
// first violation found (nil when b is feasible). It is the one rule
// check behind Check. A resource index of -1 marks an unbound leaf.
func (p *Problem) Verify(av *spec.ArchView, b []int32, opts Options, sc *Scratch) error {
	for i := range p.leaves {
		if err := p.leafErr(av, i, b[i]); err != nil {
			return err
		}
	}
	return p.verifyLinks(av, b, opts, sc)
}

// lookup returns leaf i's candidate on resource r.
func (p *Problem) lookup(i int, r int32) (spec.Candidate, bool) {
	for _, c := range p.leaves[i].Cands {
		if c.Res == r {
			return c, true
		}
	}
	return spec.Candidate{}, false
}

// leafErr applies rule 2 to leaf i bound to resource r: the leaf is
// bound, through a mapping edge, to a present resource.
func (p *Problem) leafErr(av *spec.ArchView, i int, r int32) error {
	id := p.leaves[i].ID
	if r < 0 {
		return fmt.Errorf("bind: process %q unbound", id)
	}
	if _, ok := p.lookup(i, r); !ok {
		return fmt.Errorf("bind: no mapping edge %q=>%q", id, p.res.At(int(r)))
	}
	if !av.PresentIndex(int(r)) {
		return fmt.Errorf("bind: resource %q not activated", p.res.At(int(r)))
	}
	return nil
}

// verifyLinks applies rule 3 (every dependence is handled) and the
// timing policy to a binding that passed rule 2.
func (p *Problem) verifyLinks(av *spec.ArchView, b []int32, opts Options, sc *Scratch) error {
	for _, e := range p.edges {
		if !av.CanCommunicateIndex(int(b[e[0]]), int(b[e[1]])) {
			return fmt.Errorf("bind: dependence %s->%s unroutable between %q and %q",
				p.leaves[e[0]].ID, p.leaves[e[1]].ID, p.res.At(int(b[e[0]])), p.res.At(int(b[e[1]])))
		}
	}
	sc.grow(len(p.leaves), p.res.Len())
	for i, l := range p.leaves {
		if l.Period <= 0 {
			continue
		}
		c, _ := p.lookup(i, b[i])
		sc.tasks[c.Res] = append(sc.tasks[c.Res], sched.Task{ID: string(l.ID), WCET: c.Lat, Period: l.Period})
	}
	// Test the resources in first-bound order, following the leaves, so
	// the violation reported is deterministic.
	var err error
	for _, r := range b {
		tasks := sc.tasks[r]
		if len(tasks) == 0 {
			continue
		}
		if err == nil && !opts.Timing.test(tasks) {
			err = fmt.Errorf("bind: resource %q fails timing policy %v (utilization %.3f)",
				p.res.At(int(r)), opts.Timing, sched.Utilization(tasks))
		}
		sc.tasks[r] = tasks[:0]
	}
	return err
}
