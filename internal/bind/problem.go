package bind

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/bitset"
	"repro/internal/hgraph"
	"repro/internal/sched"
	"repro/internal/spec"
)

// Problem is a flattened problem graph prepared for binding in index
// space: per leaf (in the flattening's vertex order) its period and its
// mapping candidates as indices into the spec's Resources, plus the
// dependence adjacency over leaf indices. Solve, MinLatency and Verify
// run on it without touching a string-keyed map; a binding is a []int32
// holding one resource index per leaf.
//
// A Problem is immutable after Prepare and safe for concurrent use;
// the mutable side of a call lives in a Scratch each goroutine owns.
type Problem struct {
	res    *bitset.Indexer[hgraph.ID]
	leaves []leaf
	// adj lists, per leaf, the leaves it shares a dependence with (in
	// edge order, both directions).
	adj [][]int32
	// edges are the dependences as leaf-index pairs, in the
	// flattening's edge order.
	edges [][2]int32
	// pos maps a leaf ID to its index, for the map-based adapters.
	pos map[hgraph.ID]int32
}

type leaf struct {
	id hgraph.ID
	// rank orders the leaves by ID: the MRV tie-break.
	rank   int32
	period float64
	// cands are the leaf's mapping edges in MappingsFor (resource ID)
	// order.
	cands []cand
}

type cand struct {
	r   int32
	lat float64
}

// Prepare builds the index-space form of the flattened problem graph fp
// of s. Mapping edges onto resources outside s.Resources() are dropped,
// as they can never be present in a view.
func Prepare(s *spec.Spec, fp *hgraph.FlatGraph) *Problem {
	n := len(fp.Vertices)
	p := &Problem{
		res:    s.Resources(),
		leaves: make([]leaf, n),
		adj:    make([][]int32, n),
		edges:  make([][2]int32, len(fp.Edges)),
		pos:    make(map[hgraph.ID]int32, n),
	}
	total := 0
	for _, v := range fp.Vertices {
		total += len(s.MappingsFor(v.ID))
	}
	cands := make([]cand, 0, total)
	byID := make([]int32, n)
	for i, v := range fp.Vertices {
		p.pos[v.ID] = int32(i)
		byID[i] = int32(i)
		l := &p.leaves[i]
		l.id, l.period = v.ID, s.Period(v.ID)
		lo := len(cands)
		for _, m := range s.MappingsFor(v.ID) {
			if r, ok := p.res.Index(m.Resource); ok {
				cands = append(cands, cand{r: int32(r), lat: m.Latency})
			}
		}
		l.cands = cands[lo:len(cands):len(cands)]
	}
	slices.SortFunc(byID, func(a, b int32) int {
		return cmp.Compare(fp.Vertices[a].ID, fp.Vertices[b].ID)
	})
	for rank, i := range byID {
		p.leaves[i].rank = int32(rank)
	}
	// An edge endpoint outside the flattening cannot occur; like the
	// historical solver, it would read as leaf 0.
	deg := make([]int, n)
	for k, e := range fp.Edges {
		i, j := p.pos[e.From], p.pos[e.To]
		p.edges[k] = [2]int32{i, j}
		deg[i]++
		deg[j]++
	}
	nbrs := make([]int32, 2*len(fp.Edges))
	for i, d := range deg {
		p.adj[i] = nbrs[:0:d]
		nbrs = nbrs[d:]
	}
	for _, e := range p.edges {
		p.adj[e[0]] = append(p.adj[e[0]], e[1])
		p.adj[e[1]] = append(p.adj[e[1]], e[0])
	}
	return p
}

// Binding returns the map form of an index binding b of p.
func (p *Problem) Binding(b []int32) Binding {
	m := make(Binding, len(b))
	for i, r := range b {
		m[p.leaves[i].id] = p.res.At(int(r))
	}
	return m
}

// Scratch is the reusable state of Solve, MinLatency and Verify:
// per-leaf search arrays and per-resource task lists, sized on demand.
// A call overwrites it, so each goroutine owns its own; the zero value
// is ready to use.
type Scratch struct {
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

// search is one Solve or MinLatency call.
type search struct {
	p    *Problem
	av   *spec.ArchView
	opts Options
	sc   *Scratch
	res  Search
	// MinLatency's incumbent (bestCost < 0: none yet).
	bestCost float64
}

// start sizes the scratch, counts each leaf's present candidates and
// fixes the search order. It reports false, before any node, when some
// leaf has no present candidate.
func (q *search) start() bool {
	p, sc := q.p, q.sc
	sc.grow(len(p.leaves), p.res.Len())
	for i := range p.leaves {
		n := int32(0)
		for _, c := range p.leaves[i].cands {
			if q.av.PresentIndex(int(c.r)) {
				n++
			}
		}
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
			if cnt[a] < cnt[b] || (cnt[a] == cnt[b] && p.leaves[a].rank < p.leaves[b].rank) {
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
func (q *search) try(i int32, c cand) (ok, stop bool) {
	if q.opts.MaxNodes > 0 && q.res.Nodes >= q.opts.MaxNodes {
		q.res.Truncated = true
		return false, true
	}
	q.res.Nodes++
	sc := q.sc
	// Communication feasibility against already-bound neighbours.
	for _, nb := range q.p.adj[i] {
		if r := sc.assigned[nb]; r >= 0 && !q.av.CanCommunicateIndex(int(c.r), int(r)) {
			return false, false
		}
	}
	// Timing feasibility of the partial load on the resource. All
	// policies are monotone in the task set, so pruning is sound.
	if l := &q.p.leaves[i]; l.period > 0 {
		ts := append(sc.tasks[c.r], sched.Task{ID: string(l.id), WCET: c.lat, Period: l.period})
		sc.tasks[c.r] = ts
		if !q.opts.Timing.test(ts) {
			sc.tasks[c.r] = ts[:len(ts)-1]
			return false, false
		}
	}
	sc.assigned[i] = c.r
	return true, false
}

// undo reverts a consistent assignment of leaf i to c.
func (q *search) undo(i int32, c cand) {
	sc := q.sc
	sc.assigned[i] = -1
	if q.p.leaves[i].period > 0 {
		ts := sc.tasks[c.r]
		sc.tasks[c.r] = ts[:len(ts)-1]
	}
}

// Solve searches for a feasible timed binding of p onto the view av:
// backtracking over the leaves in MRV order, each leaf's present
// candidates in resource-ID order, so the first binding found is
// deterministic. sc must not be shared with a concurrent call.
func (p *Problem) Solve(av *spec.ArchView, opts Options, sc *Scratch) (Search, bool) {
	q := search{p: p, av: av, opts: opts, sc: sc}
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
	for _, c := range q.p.leaves[i].cands {
		if !q.av.PresentIndex(int(c.r)) {
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
	q := search{p: p, av: av, opts: opts, sc: sc, bestCost: -1}
	if !q.start() {
		return q.res, false
	}
	for i := range p.leaves {
		first := true
		for _, c := range p.leaves[i].cands {
			if av.PresentIndex(int(c.r)) && (first || c.lat < sc.minLat[i]) {
				sc.minLat[i], first = c.lat, false
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
	for _, c := range q.p.leaves[i].cands {
		if !q.av.PresentIndex(int(c.r)) {
			continue
		}
		ok, stop := q.try(i, c)
		if stop {
			return
		}
		if !ok {
			continue
		}
		q.minimize(k+1, acc+c.lat)
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
func (p *Problem) lookup(i int, r int32) (cand, bool) {
	for _, c := range p.leaves[i].cands {
		if c.r == r {
			return c, true
		}
	}
	return cand{}, false
}

// leafErr applies rule 2 to leaf i bound to resource r: the leaf is
// bound, through a mapping edge, to a present resource.
func (p *Problem) leafErr(av *spec.ArchView, i int, r int32) error {
	id := p.leaves[i].id
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
				p.leaves[e[0]].id, p.leaves[e[1]].id, p.res.At(int(b[e[0]])), p.res.At(int(b[e[1]])))
		}
	}
	sc.grow(len(p.leaves), p.res.Len())
	for i := range p.leaves {
		l := &p.leaves[i]
		if l.period <= 0 {
			continue
		}
		c, _ := p.lookup(i, b[i])
		sc.tasks[c.r] = append(sc.tasks[c.r], sched.Task{ID: string(l.id), WCET: c.lat, Period: l.period})
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
