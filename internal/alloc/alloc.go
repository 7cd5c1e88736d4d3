// Package alloc implements the paper's first search-space reduction:
// the enumeration of possible resource allocations in order of
// increasing allocation cost.
//
// A possible resource allocation is a partial allocation of resources
// in the architecture graph which allows the implementation of at least
// one feasible problem-graph activation while neglecting the
// feasibility of binding: every leaf of at least one elementary cluster
// activation must have a mapping edge into the allocation, and the
// always-activated top level of the problem graph must be coverable.
// Following the paper, only leaves of the top-level architecture graph
// and whole architecture clusters are allocatable units.
//
// Enumeration is lazy: subsets of the allocatable units are generated
// in nondecreasing total cost through a binary heap (extend/replace
// children, each subset generated exactly once), so the exploration can
// stop early without touching the full 2^n space. The explorers'
// producer, EnumerateSymbolicRange, walks that subset tree over the
// BDD of the possible allocations and skips every subtree without one;
// EnumerateRange scans every subset and is kept as its test oracle.
package alloc

import (
	"cmp"
	"container/heap"
	"slices"
	"sync"

	"repro/internal/bitset"
	"repro/internal/hgraph"
	"repro/internal/spec"
)

// Unit is an allocatable architecture element: a leaf vertex of the
// top-level architecture graph or a whole architecture cluster.
type Unit struct {
	ID   hgraph.ID
	Cost float64
	// Comm marks a pure communication unit (a bus vertex).
	Comm bool
	// Resources are the leaf resources the unit provides.
	Resources []hgraph.ID
}

// Units returns the allocatable units of the specification, sorted by
// cost (ties by ID). Clusters nested below other clusters are not
// separate units — allocating the outer cluster allocates them; only
// clusters of interfaces reachable from the architecture root through
// vertices/interfaces of enclosing *allocated* scopes would need them,
// and the paper's models (and ours) keep reconfigurable interfaces at
// the top level.
func Units(s *spec.Spec) []Unit {
	n := len(s.Arch.Root.Vertices)
	for _, i := range s.Arch.Root.Interfaces {
		n += len(i.Clusters)
	}
	out := make([]Unit, 0, n)
	// A leaf unit provides itself: one backing array holds them all.
	self := make([]hgraph.ID, len(s.Arch.Root.Vertices))
	for i, v := range s.Arch.Root.Vertices {
		self[i] = v.ID
		out = append(out, Unit{
			ID:        v.ID,
			Cost:      v.Attrs.GetDefault(spec.AttrCost, 0),
			Comm:      s.IsComm(v.ID),
			Resources: self[i : i+1 : i+1],
		})
	}
	for _, i := range s.Arch.Root.Interfaces {
		for _, c := range i.Clusters {
			leaves := s.Arch.LeavesOf(c)
			u := Unit{
				ID:        c.ID,
				Cost:      c.Attrs.GetDefault(spec.AttrCost, 0),
				Resources: make([]hgraph.ID, 0, len(leaves)),
			}
			for _, lv := range leaves {
				u.Cost += lv.Attrs.GetDefault(spec.AttrCost, 0)
				u.Resources = append(u.Resources, lv.ID)
			}
			out = append(out, u)
		}
	}
	slices.SortFunc(out, func(a, b Unit) int {
		if c := cmp.Compare(a.Cost, b.Cost); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return out
}

// SupportableClusters returns the problem-graph clusters that remain
// activatable when the architecture is restricted to the given
// allocation, ignoring binding feasibility: a cluster is supportable
// iff each of its own vertices has at least one mapping edge into the
// allocation's resources and each of its interfaces has at least one
// supportable cluster, along the reachable hierarchy. The root is
// included when supportable. This set drives the paper's flexibility
// estimation.
func SupportableClusters(s *spec.Spec, a spec.Allocation) map[hgraph.ID]bool {
	avail := a.ResourceSet(s)
	memo := map[hgraph.ID]bool{}
	var ok func(c *hgraph.Cluster) bool
	ok = func(c *hgraph.Cluster) bool {
		if v, seen := memo[c.ID]; seen {
			return v
		}
		res := true
		for _, v := range c.Vertices {
			reachable := false
			for _, m := range s.MappingsFor(v.ID) {
				if avail[m.Resource] {
					reachable = true
					break
				}
			}
			if !reachable {
				res = false
				break
			}
		}
		if res {
			for _, i := range c.Interfaces {
				any := false
				for _, sub := range i.Clusters {
					if ok(sub) {
						any = true
					}
				}
				if !any {
					res = false
					break
				}
			}
		}
		memo[c.ID] = res
		return res
	}
	out := map[hgraph.ID]bool{}
	var mark func(c *hgraph.Cluster)
	mark = func(c *hgraph.Cluster) {
		if !ok(c) {
			return
		}
		out[c.ID] = true
		for _, i := range c.Interfaces {
			for _, sub := range i.Clusters {
				mark(sub)
			}
		}
	}
	mark(s.Problem.Root)
	return out
}

// Possible reports whether the allocation is a possible resource
// allocation: the problem root must be supportable (rule 4 — all
// top-level vertices and interfaces are required).
func Possible(s *spec.Spec, a spec.Allocation) bool {
	return SupportableClusters(s, a)[s.Problem.Root.ID]
}

// Options configures the enumeration.
type Options struct {
	// IncludeUselessComm keeps allocations containing buses that
	// connect fewer than two allocated functional units. The paper's
	// Fig. 2 example lists such supersets (μP C1, ...); the case study
	// leaves them out as obviously non-Pareto-optimal.
	IncludeUselessComm bool
	// MaxScan bounds the enumeration effort in BDD search nodes visited
	// (0 = unbounded). The walk keyed by cheapest completion reaches any
	// stream position in no more visits than the walk keyed by each
	// node's own cost did, so a budget reaches at least as far into the
	// same stream. The bitset oracle EnumerateRange counts subsets
	// scanned instead.
	MaxScan int
}

// Stats reports enumeration effort.
type Stats struct {
	// Scanned counts enumeration effort: BDD search nodes visited by the
	// symbolic walk, subsets generated in cost order by the bitset scan.
	Scanned int
	// Possible counts subsets that passed the possibility test and were
	// yielded to the callback.
	Possible int
	// PrunedComm counts subsets skipped by the useless-bus rule.
	PrunedComm int
	// SearchSpace is 2^(number of units), the size of the unreduced
	// allocation space.
	SearchSpace float64
	// BudgetCut reports that MaxScan stopped the enumeration before the
	// stream was exhausted. Set by EnumerateRange, EnumerateSymbolicRange
	// and EnumerateExtensions; an enumeration that ends exactly at its
	// budget is not cut.
	BudgetCut bool
	// Producers is always 0. It remains only until the benchmark
	// harness stops reading it.
	Producers int
}

// Candidate is one possible resource allocation with its cost.
type Candidate struct {
	Allocation spec.Allocation
	Cost       float64
}

// Enumerate generates possible resource allocations in nondecreasing
// cost order and passes each to fn until fn returns false or the space
// is exhausted. It returns enumeration statistics.
//
// The scan is bitset-native: each heap node carries the subset both as
// the ascending unit-index slice that drives the deterministic
// equal-cost tie-break and as a dense bitset over the unit universe,
// and nodes (slice and bitset included) are recycled through a
// sync.Pool. The useless-bus rule and the possibility test (rule 4:
// root supportability) run word-parallel against a per-call Supporter,
// so no map is allocated for a scanned subset — the map-backed
// spec.Allocation is materialized only for candidates actually emitted,
// and the callback owns that map.
func Enumerate(s *spec.Spec, opts Options, fn func(Candidate) bool) Stats {
	return EnumerateRange(s, opts, 0, fn)
}

// EnumerateRange is Enumerate addressed by possible-candidate index:
// the scan itself is identical (heap order, Scanned/Possible/PrunedComm
// counts, MaxScan), but the first start possible candidates are skipped
// without materializing their spec.Allocation maps. Because the cost
// order and its tie-break are deterministic, the possible-candidate
// index is a stable address into the enumeration — a resumed or
// range-partitioned scan replays its prefix at raw scan speed, paying
// the map allocation only for candidates actually delivered to fn.
func EnumerateRange(s *spec.Spec, opts Options, start int, fn func(Candidate) bool) Stats {
	env := newScanEnv(s)
	n := env.n
	stats := Stats{SearchSpace: SearchSpace(n)}

	sc := env.sup.NewScratch()
	pool := sync.Pool{New: func() any { return &subset{bits: bitset.New(n)} }}

	h := &subsetHeap{}
	if n > 0 {
		first := pool.Get().(*subset)
		first.cost = env.units[0].Cost
		first.idx = append(first.idx[:0], 0)
		first.bits.Clear()
		first.bits.Add(0)
		heap.Push(h, first)
	}
	// The empty allocation is scanned first (never possible for a
	// problem graph with vertices, but counted for fidelity).
	stats.Scanned++
	if env.sup.possibleUnits(nil, sc) {
		stats.Possible++
		if stats.Possible > start && !fn(Candidate{Allocation: spec.Allocation{}, Cost: 0}) {
			return stats
		}
	}
	for h.Len() > 0 {
		if opts.MaxScan > 0 && stats.Scanned >= opts.MaxScan {
			stats.BudgetCut = true
			break
		}
		cur := heap.Pop(h).(*subset)
		stats.Scanned++
		if m := cur.idx[len(cur.idx)-1]; m+1 < n {
			heap.Push(h, env.child(&pool, cur, false))
			heap.Push(h, env.child(&pool, cur, true))
		}
		switch {
		case !opts.IncludeUselessComm && env.uselessComm(cur):
			stats.PrunedComm++
		case !env.sup.possibleUnits(cur.idx, sc):
		default:
			stats.Possible++
			if stats.Possible <= start {
				// Before the range: counted, never materialized.
				break
			}
			if !fn(Candidate{Allocation: AllocationOf(env.units, cur.idx), Cost: cur.cost}) {
				pool.Put(cur)
				return stats
			}
		}
		pool.Put(cur)
	}
	return stats
}

// EnumerateShardedRange forwards to EnumerateRange and ignores
// producers. It remains only until the benchmark harness stops calling
// it.
func EnumerateShardedRange(s *spec.Spec, opts Options, producers, start int, fn func(Candidate) bool) Stats {
	return EnumerateRange(s, opts, start, fn)
}

// EnumerateSymbolicShardedRange forwards to EnumerateSymbolicRange and
// ignores producers. It remains only until the benchmark harness stops
// calling it.
func EnumerateSymbolicShardedRange(s *spec.Spec, opts Options, producers, start int, fn func(Candidate) bool) Stats {
	return EnumerateSymbolicRange(s, opts, start, fn)
}

// scanEnv is the read-only state of a bitset scan: the cost-ordered
// unit universe, the bus-adjacency bitsets for the useless-bus rule,
// and the Supporter, whose per-unit resource sets drive the possibility
// test. It is built once per enumeration; the scan's mutable state
// lives in a SupportScratch.
type scanEnv struct {
	units []Unit
	n     int
	sup   *Supporter
	// commAdjBits[k]: for a bus unit, the unit indices it touches (nil
	// for functional units).
	commAdjBits []bitset.Set
}

func newScanEnv(s *spec.Spec) *scanEnv {
	sup := NewSupporter(s)
	units := sup.Units
	n := len(units)
	env := &scanEnv{units: units, n: n, sup: sup}
	env.commAdjBits = make([]bitset.Set, n)
	for k, u := range units {
		if u.Comm {
			bs := bitset.New(n)
			for _, other := range sup.busAdj[k] {
				bs.Add(other)
			}
			env.commAdjBits[k] = bs
		}
	}
	return env
}

// uselessComm applies the useless-bus rule: true when the subset
// contains a bus connecting fewer than two allocated units.
func (e *scanEnv) uselessComm(cur *subset) bool {
	for _, k := range cur.idx {
		if e.units[k].Comm && e.commAdjBits[k].IntersectionCount(cur.bits) < 2 {
			return true
		}
	}
	return false
}

// child derives a heap node from cur: extend appends unit m+1, replace
// swaps the last unit m for m+1 (each subset generated exactly once).
// The node comes from pool, which recycles the nodes the scan pops.
func (e *scanEnv) child(pool *sync.Pool, cur *subset, replace bool) *subset {
	m := cur.idx[len(cur.idx)-1]
	c := pool.Get().(*subset)
	c.idx = append(c.idx[:0], cur.idx...)
	c.bits.Clear()
	c.bits.UnionWith(cur.bits)
	if replace {
		c.idx[len(c.idx)-1] = m + 1
		c.bits.Remove(m)
		c.cost = cur.cost - e.units[m].Cost + e.units[m+1].Cost
	} else {
		c.idx = append(c.idx, m+1)
		c.cost = cur.cost + e.units[m+1].Cost
	}
	c.bits.Add(m + 1)
	return c
}

// SearchSpace returns 2^n as a float64: the size of an n-element subset
// space. It is the one search-space helper shared by the allocation
// enumerators and the exploration statistics (which multiply further
// per-element choices on top for the full design space).
func SearchSpace(n int) float64 {
	out := 1.0
	for i := 0; i < n; i++ {
		out *= 2
	}
	return out
}

// subset is a heap node: unit indices (sorted ascending), the same
// subset as a dense bitset over the unit universe, and total cost.
type subset struct {
	cost float64
	idx  []int
	bits bitset.Set
}

type subsetHeap []*subset

func (h subsetHeap) Len() int { return len(h) }

// Less orders by total cost; equal-cost subsets are ordered
// deterministically by descending lexicographic index sequence. The
// paper does not define an order among equal-cost allocations (its
// published case-study representative at $230 is one of three equal
// optima); this tie-break is fixed so results are reproducible and
// happens to select the published representative.
func (h subsetHeap) Less(i, j int) bool {
	if h[i].cost != h[j].cost {
		return h[i].cost < h[j].cost
	}
	a, b := h[i].idx, h[j].idx
	for k := 0; k < len(a) && k < len(b); k++ {
		if a[k] != b[k] {
			return a[k] > b[k]
		}
	}
	return len(a) > len(b)
}
func (h subsetHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *subsetHeap) Push(x any)   { *h = append(*h, x.(*subset)) }
func (h *subsetHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}
