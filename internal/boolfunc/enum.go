package boolfunc

import (
	"container/heap"
	"fmt"
	"math/big"
	"sync"
)

// CostEnum enumerates the satisfying assignments of a boolean function
// in nondecreasing total cost of the true variables (weighted model
// enumeration). It is the symbolic counterpart of a cost-ordered subset
// scan: the search walks the same extend/replace subset tree a heap
// scan over all 2^n subsets would walk — node [i₁<…<i_k] has an extend
// child [i₁..i_k, i_k+1] and a replace child [i₁..i_{k-1}, i_k+1], so
// every subset is generated exactly once — but prunes every subtree the
// BDD proves free of satisfying assignments, so only O(trie of the
// satisfying set) nodes are visited instead of all 2^n.
//
// Determinism and tie order. The heap orders by (cost, descending
// lexicographic index sequence) — the exact comparator of the bitset
// scan in internal/alloc (subsetHeap.Less) — and pruning removes only
// whole subtrees that contain no satisfying assignment. Removing a
// subtree never changes when the surviving nodes become available
// (their parents all survive), so the sequence of satisfying
// assignments is bit-identical to the subsequence of satisfying subsets
// in the unpruned scan: the two producers are interchangeable
// mid-stream, cursor for cursor.
//
// Costs must be non-negative and nondecreasing in variable order (the
// natural variable order for a cost-ordered enumeration — both child
// moves then never decrease the cost, which is what makes the heap pop
// order nondecreasing). Callers with unsorted costs should assign
// variables in cost order, as alloc.Symbolic does.
//
// The enumeration is resumable by deterministic replay: Emitted() is a
// stable cursor into the stream, and a fresh CostEnum over the same
// function skips back to it by discarding that many Next results (the
// replay revisits only satisfying-path nodes, not 2^n subsets).
type CostEnum struct {
	// MaxVisits bounds the search effort: Next reports ok=false once
	// Visited() reaches it (0 = unbounded). This is the symbolic
	// analogue of a scan bound — the unit is BDD search nodes visited,
	// not subsets scanned.
	MaxVisits int

	m       *Manager
	f       *Node
	costs   []float64
	h       enumHeap
	started bool
	visited int
	emitted int
	cut     bool
	// The memo tables are dense slices indexed by BDD node id (0
	// unknown, 1 true, 2 false): the walk calls only read-only Manager
	// operations, so the id space is frozen at construction time and a
	// slice replaces the former map — the walk's dominant allocation
	// source along with the heap nodes, which a sync.Pool recycles.
	oneMemo  []int8
	zeroMemo []int8
	pool     sync.Pool
	buf      []int

	// Shard state, set only by NewCostEnumShard: the lanes (root
	// variables) this enumeration walks, the per-lane count of live
	// heap nodes, and the lanes fully walked since the last
	// TakeDrained call. lanePos maps a root variable to its slot.
	lanes   []int
	lanePos []int
	pending []int
	drained []int
}

// enumNode is one live subset-tree node: the unit indices (ascending),
// their total cost, and the function restricted by the node's bits on
// every variable below the last index (the last variable itself is
// resolved lazily, because the replace child needs its false branch).
type enumNode struct {
	cost float64
	idx  []int
	pre  *Node
}

// enumHeap orders by total cost with the equal-cost tie broken by
// descending lexicographic index sequence — a copy of
// alloc.subsetHeap.Less, which the package comment on CostEnum relies
// on for stream identity. The comparator is a strict total order on
// distinct subsets, so the pop sequence is independent of push order
// and heap layout.
type enumHeap []*enumNode

func (h enumHeap) Len() int { return len(h) }
func (h enumHeap) Less(i, j int) bool {
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
func (h enumHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *enumHeap) Push(x any)   { *h = append(*h, x.(*enumNode)) }
func (h *enumHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// NewCostEnum prepares a cost-ordered enumeration of the satisfying
// assignments of f. costs must have one non-negative entry per manager
// variable, nondecreasing in variable order (see the type comment).
func (m *Manager) NewCostEnum(f *Node, costs []float64) *CostEnum {
	m.checkCosts(costs)
	return &CostEnum{
		m:        m,
		f:        f,
		costs:    costs,
		oneMemo:  make([]int8, m.nextID),
		zeroMemo: make([]int8, m.nextID),
		pool:     sync.Pool{New: func() any { return new(enumNode) }},
	}
}

// NewCostEnumShard prepares a cost-ordered enumeration restricted to
// the subset-tree lanes rooted at the given variables: lane k holds
// exactly the satisfying assignments whose minimum true variable is k.
// roots must be strictly ascending, in range, and nonempty. The walk
// is identical to NewCostEnum's restricted to those lanes — same
// comparator, same pruning, same per-lane emission order — so P
// shard enumerations over a partition of the roots jointly cover the
// nonempty satisfying assignments exactly once. MaxVisits bounds this
// shard's own visits. The enumeration only reads the Manager, so any
// number of shards may walk one shared BDD concurrently.
func (m *Manager) NewCostEnumShard(f *Node, costs []float64, roots []int) *CostEnum {
	m.checkCosts(costs)
	if len(roots) == 0 {
		panic("boolfunc: shard enumeration needs at least one lane root")
	}
	e := &CostEnum{
		m:        m,
		f:        f,
		costs:    costs,
		oneMemo:  make([]int8, m.nextID),
		zeroMemo: make([]int8, m.nextID),
		pool:     sync.Pool{New: func() any { return new(enumNode) }},
		lanes:    roots,
		lanePos:  make([]int, m.numVars),
		pending:  make([]int, len(roots)),
	}
	for i := range e.lanePos {
		e.lanePos[i] = -1
	}
	// The lane root {k} is the replace-chain descendant of the spine:
	// its restriction sets every variable below k false, which is a
	// pure Low-edge descent — no node construction, Manager untouched.
	pre := f
	prev := -1
	for i, k := range roots {
		if k < 0 || k >= m.numVars || k <= prev {
			panic("boolfunc: shard lane roots must be strictly ascending and in range")
		}
		for !pre.IsTerminal() && pre.Var < k {
			pre = pre.Low
		}
		prev = k
		e.lanePos[k] = i
		c := e.pool.Get().(*enumNode)
		c.cost = costs[k]
		c.idx = append(c.idx[:0], k)
		c.pre = pre
		heap.Push(&e.h, c)
		e.pending[i] = 1
	}
	// Roots are pushed unconditionally (an unsatisfiable lane costs one
	// visit and drains immediately); the spine gating that decides when
	// a lane's output may be consumed lives in the caller's merge.
	e.started = true
	return e
}

// checkCosts validates a cost vector for cost-ordered enumeration.
func (m *Manager) checkCosts(costs []float64) {
	if len(costs) != m.numVars {
		panic("boolfunc: cost vector length mismatch")
	}
	for i, c := range costs {
		if c < 0 {
			panic(fmt.Sprintf("boolfunc: negative cost %v for variable %d", c, i))
		}
		if i > 0 && c < costs[i-1] {
			panic(fmt.Sprintf("boolfunc: costs must be nondecreasing in variable order (cost[%d]=%v < cost[%d]=%v)", i, c, i-1, costs[i-1]))
		}
	}
}

// Next returns the true-variable indices (ascending) and cost of the
// next satisfying assignment, in nondecreasing cost. ok=false means the
// enumeration is exhausted or the MaxVisits budget ran out. The
// returned slice is reused by the following Next call; callers that
// retain it must copy.
func (e *CostEnum) Next() (trueVars []int, cost float64, ok bool) {
	if !e.started {
		e.started = true
		// Mirror of the subset scan: the all-false assignment is
		// visited first, outside the heap.
		e.visited++
		if e.m.numVars > 0 && e.subtreeSat(e.f, 0) {
			c := e.pool.Get().(*enumNode)
			c.cost = e.costs[0]
			c.idx = append(c.idx[:0], 0)
			c.pre = e.f
			heap.Push(&e.h, c)
		}
		if e.zeroSat(e.f) {
			e.emitted++
			return e.buf[:0], 0, true
		}
	}
	for len(e.h) > 0 {
		if e.MaxVisits > 0 && e.visited >= e.MaxVisits {
			e.cut = true
			return nil, 0, false
		}
		cur := heap.Pop(&e.h).(*enumNode)
		e.visited++
		last := cur.idx[len(cur.idx)-1]
		n0, n1 := e.m.cofactors(cur.pre, last)
		pushed := 0
		if last+1 < e.m.numVars {
			// The children's subtrees share the child's bits below its
			// last index and contain exactly the subsets whose first
			// further element is >= that index, so each is pushed iff a
			// satisfying assignment with at least one true variable
			// from last+1 on extends the restriction.
			if e.subtreeSat(n1, last+1) {
				c := e.pool.Get().(*enumNode)
				c.cost = cur.cost + e.costs[last+1]
				c.pre = n1
				c.idx = append(append(c.idx[:0], cur.idx...), last+1)
				heap.Push(&e.h, c)
				pushed++
			}
			// A shard walk never replaces a lane root's only element:
			// that subset is another lane's root.
			if (e.lanes == nil || len(cur.idx) > 1) && e.subtreeSat(n0, last+1) {
				c := e.pool.Get().(*enumNode)
				c.cost = cur.cost - e.costs[last] + e.costs[last+1]
				c.pre = n0
				c.idx = append(c.idx[:0], cur.idx...)
				c.idx[len(c.idx)-1] = last + 1
				heap.Push(&e.h, c)
				pushed++
			}
		}
		if e.lanes != nil {
			slot := e.lanePos[cur.idx[0]]
			e.pending[slot] += pushed - 1
			if e.pending[slot] == 0 {
				e.drained = append(e.drained, e.lanes[slot])
			}
		}
		sat := e.zeroSat(n1)
		if sat {
			e.emitted++
			e.buf = append(e.buf[:0], cur.idx...)
			cost = cur.cost
		}
		e.pool.Put(cur)
		if sat {
			return e.buf, cost, true
		}
	}
	return nil, 0, false
}

// TakeDrained returns the lane roots whose subtrees have been fully
// walked since the last call, in drain order, and resets the list.
// Only meaningful for shard enumerations; a lane may drain during a
// Next call that emits for a different lane.
func (e *CostEnum) TakeDrained() []int {
	d := e.drained
	e.drained = nil
	return d
}

// Visited counts search nodes popped (plus the initial all-false
// check): the enumeration's total effort, comparable to a subset scan's
// scanned count.
func (e *CostEnum) Visited() int { return e.visited }

// BudgetCut reports that Next stopped at the MaxVisits budget while the
// walk still held unvisited nodes. Every queued node's subtree holds a
// satisfying assignment, so for a NewCostEnum walk this means the
// budget cut the stream short; a walk that ends exactly at its budget
// is not cut.
func (e *CostEnum) BudgetCut() bool { return e.cut }

// Emitted counts assignments returned so far — the resumable cursor
// into the deterministic stream.
func (e *CostEnum) Emitted() int { return e.emitted }

// subtreeSat reports whether some satisfying assignment extends the
// restriction n (all variables below level decided) with at least one
// true variable at or above level. It prunes the subset-tree: a node's
// subtree contains a satisfying subset iff this holds for the node's
// restriction.
func (e *CostEnum) subtreeSat(n *Node, level int) bool {
	if n == e.m.zero {
		return false
	}
	if n == e.m.one {
		return level < e.m.numVars
	}
	if n.Var > level {
		// n is internal, hence satisfiable, and does not test `level`:
		// set that unconstrained variable true in any satisfying
		// completion.
		return true
	}
	// n.Var == level, so the memo key needs no level component.
	if v := e.oneMemo[n.id]; v != 0 {
		return v == 1
	}
	r := n.High != e.m.zero || e.subtreeSat(n.Low, level+1)
	e.oneMemo[n.id] = memoBool(r)
	return r
}

// memoBool encodes a cached boolean for the dense memo slices: 0 is
// "unknown", so true/false map to 1/2.
func memoBool(v bool) int8 {
	if v {
		return 1
	}
	return 2
}

// zeroSat reports whether the all-false completion of the restriction n
// satisfies the function (the subset-tree node's own assignment sets
// exactly its indices).
func (e *CostEnum) zeroSat(n *Node) bool {
	if n.IsTerminal() {
		return n == e.m.one
	}
	if v := e.zeroMemo[n.id]; v != 0 {
		return v == 1
	}
	r := e.zeroSat(n.Low)
	e.zeroMemo[n.id] = memoBool(r)
	return r
}

// SatCountBig returns the exact number of satisfying assignments over
// the full variable universe as a big integer. Use it instead of
// SatCount whenever the count may reach 2^53, where float64 loses
// exactness.
func (m *Manager) SatCountBig(n *Node) *big.Int {
	memo := map[int]*big.Int{}
	var count func(n *Node) *big.Int
	count = func(n *Node) *big.Int {
		if n == m.zero {
			return big.NewInt(0)
		}
		if n == m.one {
			return big.NewInt(1)
		}
		if c, ok := memo[n.id]; ok {
			return c
		}
		// Each branch skips (child.Var - n.Var - 1) unconstrained
		// variables.
		lo := new(big.Int).Lsh(count(n.Low), uint(n.Low.Var-n.Var-1))
		hi := new(big.Int).Lsh(count(n.High), uint(n.High.Var-n.Var-1))
		c := lo.Add(lo, hi)
		memo[n.id] = c
		return c
	}
	return new(big.Int).Lsh(count(n), uint(n.Var))
}
