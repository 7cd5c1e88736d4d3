package boolfunc

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
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
// Determinism and tie order. The stream is the satisfying subsequence
// of the unpruned scan under the (cost, descending lexicographic index
// sequence) heap order — the exact comparator of the bitset scan in
// internal/alloc (subsetHeap.Less) — so the two producers are
// interchangeable mid-stream, cursor for cursor. Pruning removes only
// whole subtrees that contain no satisfying assignment, and removing a
// subtree never changes when the surviving nodes become available
// (their parents all survive).
//
// The key. A frontier node is keyed not by its own cost but by the
// cheapest satisfying assignment in its subtree: the cost of its
// elements below its last one plus minNE, the cheapest completion of
// its restriction with a true variable at or above its last index.
// Children never key below their parent, so keys pop in nondecreasing
// order, and a satisfying node's key is its own cost. Entries order by
// key, then those whose cost is below their key (they do not satisfy)
// first, then by the tie-break above. Within one cost
// tier T the scan's emissions come, in its greedy heap order, from the
// cost-T nodes whose subtree holds a satisfying assignment of cost T;
// every other cost-T node roots a subtree with nothing to emit in T,
// which the argument above lets us remove. Under the key order every
// cheaper ancestor of those nodes keys at most T and is expanded before
// the first cost-T pop, so the tier's relevant nodes are all queued
// when it starts and pop in the scan's order. The stream is
// unchanged; the walk just no longer expands a cheap node whose
// cheapest satisfying descendant lies in a later tier.
//
// Exactness guard. That argument compares sums for equality, so the
// key is used only when every cost is an integer and their total is
// below 2^53, where every subset sum is exact in float64. Otherwise a
// node is keyed by its own cost — the plain scan order — and minNE,
// computed over zero costs, serves only as the pruning test.
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
	// not subsets scanned. The keyed walk reaches any stream position
	// in no more visits than a walk keyed by each node's own cost.
	MaxVisits int

	m     *Manager
	f     *Node
	costs []float64
	// hcosts are the costs the completion tables sum: costs when the
	// exactness guard holds, zeros otherwise.
	hcosts  []float64
	started bool
	visited int
	emitted int
	cut     bool
	// The memo tables are dense slices indexed by BDD node id: the walk
	// calls only read-only Manager operations, so the id space is
	// frozen at construction time. minMemo holds each node's minSat at
	// 2·id and its minNE at its own level at 2·id+1, -1 when unknown;
	// zeroMemo is 0 unknown, 1 true, 2 false.
	minMemo  []float64
	zeroMemo []int8

	// The frontier is flat. h holds value entries; each entry's index
	// set is a row of `words` words in arena, bit i standing for
	// variable i. A popped node hands its row to one of its children
	// and a childless node frees it; free rows form a list threaded
	// through their first word, headed by free (-1 when empty), and
	// rows counts the rows ever handed out. The heap and the arena
	// grow by doubling, so a walk allocates O(log live nodes) times
	// rather than per visited node. buf is the reused Next result.
	h     enumHeap
	arena []uint64
	words int
	rows  int32
	free  int32
	buf   []int
}

// enumEntry is one live subset-tree node: its key (see CostEnum), the
// function restricted by the node's bits on every variable below its
// last index (the last variable itself is resolved lazily, because the
// replace child needs its false branch), the arena row holding its
// index set, and that set's largest index, with atKey set when the
// node's own cost equals its key. A node's cost is not stored: it is
// the key under atKey, and key − minNE(pre, last) + costs[last]
// otherwise, exact under the guard.
type enumEntry struct {
	key  float64
	pre  *Node
	row  int32
	last uint32
}

// atKey is the enumEntry.last bit marking a node whose cost is its key.
const atKey = 1 << 31

// index returns the entry's largest index.
func (x *enumEntry) index() int { return int(x.last &^ atKey) }

// enumHeap is a binary min-heap of frontier entries under
// CostEnum.less, sifted by hand (CostEnum.up and down) so entries stay
// unboxed values. less is a strict total order on distinct subsets, so
// the pop sequence is independent of push order and heap layout.
type enumHeap []enumEntry

// minFrontier is the initial capacity, in entries and in rows, of a
// walk's heap and arena.
const minFrontier = 64

// NewCostEnum prepares a cost-ordered enumeration of the satisfying
// assignments of f. costs must have one non-negative entry per manager
// variable, nondecreasing in variable order (see the type comment).
func (m *Manager) NewCostEnum(f *Node, costs []float64) *CostEnum {
	m.checkCosts(costs)
	e := &CostEnum{
		m:        m,
		f:        f,
		costs:    costs,
		hcosts:   costs,
		minMemo:  make([]float64, 2*m.nextID),
		zeroMemo: make([]int8, m.nextID),
		words:    (m.numVars + 63) / 64,
		free:     -1,
	}
	if !exactSums(costs) {
		e.hcosts = make([]float64, m.numVars)
	}
	for i := range e.minMemo {
		e.minMemo[i] = -1
	}
	return e
}

// exactSums reports whether every cost is an integer and their total is
// below 2^53, so every sum and difference of subset costs is exact.
func exactSums(costs []float64) bool {
	total := 0.0
	for _, c := range costs {
		if c != math.Trunc(c) {
			return false
		}
		total += c
	}
	return total < 1<<53
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
		if e.m.numVars > 0 {
			if h := e.minNE(e.f, 0); !math.IsInf(h, 1) {
				e.push(e.entry(0, h, e.f, e.singleton(0), 0))
			}
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
		// The top stays in place until a child overwrites it, which
		// saves the sift of a separate pop; the children may take over
		// its row, so read everything it still needs first.
		cur := e.h[0]
		e.visited++
		last := cur.index()
		cost := cur.key
		if cur.last&atKey == 0 {
			cost = cur.key - e.minNE(cur.pre, last) + e.costs[last]
		}
		n0, n1 := e.m.cofactors(cur.pre, last)
		sat := e.zeroSat(n1)
		if sat {
			e.emitted++
			e.buf = e.appendIndices(e.buf[:0], cur.row)
		}
		// The children's subtrees share the child's bits below its last
		// index and contain exactly the subsets whose first further
		// element is >= that index, so each is pushed iff a satisfying
		// assignment with at least one true variable from last+1 on
		// extends the restriction — iff its minNE is finite.
		next := last + 1
		hExt, hRep := math.Inf(1), math.Inf(1)
		if next < e.m.numVars {
			hExt = e.minNE(n1, next)
			hRep = e.minNE(n0, next)
		}
		ext, rep := !math.IsInf(hExt, 1), !math.IsInf(hRep, 1)
		if ext {
			r := cur.row
			if rep {
				r = e.newRow()
				copy(e.row(r), e.row(cur.row))
			}
			e.row(r)[next>>6] |= 1 << (next & 63)
			e.place(e.entry(cost, hExt, n1, r, next), true)
		}
		if rep {
			row := e.row(cur.row)
			row[last>>6] &^= 1 << (last & 63)
			row[next>>6] |= 1 << (next & 63)
			e.place(e.entry(cost-e.costs[last], hRep, n0, cur.row, next), !ext)
		}
		if !ext && !rep {
			e.freeRow(cur.row)
			e.popTop()
		}
		if sat {
			return e.buf, cost, true
		}
	}
	return nil, 0, false
}

// entry builds the frontier entry of the subset-tree node with largest
// index k, restriction p and index-set row r, from the cost pc of its
// elements below k and h = minNE(p, k), which must be finite. Without
// the guard h is 0, and the key is the node's cost, summed as the plain
// scan sums it.
func (e *CostEnum) entry(pc, h float64, p *Node, r int32, k int) enumEntry {
	if h != e.hcosts[k] {
		return enumEntry{key: pc + h, pre: p, row: r, last: uint32(k)}
	}
	return enumEntry{key: pc + e.costs[k], pre: p, row: r, last: uint32(k) | atKey}
}

// less orders frontier entries by key, then nodes below their key
// before nodes at it, then by descending lexicographic index sequence —
// the equal-cost tie-break of alloc.subsetHeap.Less, which the type
// comment relies on for stream identity.
func (e *CostEnum) less(a, b *enumEntry) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if ka, kb := a.last&atKey, b.last&atKey; ka != kb {
		return kb != 0
	}
	return tieBefore(e.row(a.row), e.row(b.row), int32(a.index()), int32(b.index()))
}

// tieBefore reports whether the index set a precedes b in descending
// lexicographic order of their ascending sequences, a prefix following
// its extensions. a and b are distinct bitmask rows and lastA, lastB
// their largest elements. Let p be the lowest element of a⊕b: the sets
// agree below p, so the sequences first differ at the position where
// one of them holds p. If p ∈ a, the other sequence holds there its
// next element above p, which is larger, or has ended, so a comes
// first iff b has no element above p. If p ∈ b, symmetrically, a comes
// first iff a has one. Comparing with the largest elements makes that
// test O(1) once p is found.
func tieBefore(a, b []uint64, lastA, lastB int32) bool {
	for w := range a {
		if x := a[w] ^ b[w]; x != 0 {
			p := int32(w<<6 + bits.TrailingZeros64(x))
			if a[w]&x&-x != 0 {
				return lastB < p
			}
			return lastA > p
		}
	}
	return false
}

// push adds x to the frontier, doubling the heap when full.
func (e *CostEnum) push(x enumEntry) {
	if len(e.h) == cap(e.h) {
		e.h = append(make(enumHeap, 0, max(2*cap(e.h), minFrontier)), e.h...)
	}
	e.h = append(e.h, x)
	e.up(len(e.h) - 1)
}

// place adds x to the frontier, into the popped top's slot when
// intoTop is set.
func (e *CostEnum) place(x enumEntry, intoTop bool) {
	if !intoTop {
		e.push(x)
		return
	}
	e.h[0] = x
	e.down(0)
}

// popTop removes the heap's top entry.
func (e *CostEnum) popTop() {
	n := len(e.h) - 1
	e.h[0] = e.h[n]
	e.h = e.h[:n]
	if n > 0 {
		e.down(0)
	}
}

func (e *CostEnum) up(j int) {
	h := e.h
	x := h[j]
	for j > 0 {
		i := (j - 1) / 2
		if !e.less(&x, &h[i]) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = x
}

func (e *CostEnum) down(i int) {
	h := e.h
	n := len(h)
	x := h[i]
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && e.less(&h[r], &h[j]) {
			j = r
		}
		if !e.less(&h[j], &x) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = x
}

// row returns arena row r.
func (e *CostEnum) row(r int32) []uint64 {
	off := int(r) * e.words
	return e.arena[off : off+e.words]
}

// newRow takes a row off the free list, or hands out a fresh one,
// doubling the arena when it is full. The row's contents are
// unspecified.
func (e *CostEnum) newRow() int32 {
	if r := e.free; r >= 0 {
		e.free = int32(uint32(e.arena[int(r)*e.words]))
		return r
	}
	if need := int(e.rows+1) * e.words; need > len(e.arena) {
		grown := make([]uint64, max(2*len(e.arena), minFrontier*e.words))
		copy(grown, e.arena)
		e.arena = grown
	}
	e.rows++
	return e.rows - 1
}

// freeRow puts row r on the free list.
func (e *CostEnum) freeRow(r int32) {
	e.arena[int(r)*e.words] = uint64(uint32(e.free))
	e.free = r
}

// singleton returns a new row holding the index set {k}.
func (e *CostEnum) singleton(k int) int32 {
	r := e.newRow()
	row := e.row(r)
	clear(row)
	row[k>>6] = 1 << (k & 63)
	return r
}

// appendIndices appends the elements of row r to dst in ascending
// order.
func (e *CostEnum) appendIndices(dst []int, r int32) []int {
	for w, word := range e.row(r) {
		for word != 0 {
			dst = append(dst, w<<6+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return dst
}

// Visited counts search nodes popped (plus the initial all-false
// check): the enumeration's total effort, comparable to a subset scan's
// scanned count.
func (e *CostEnum) Visited() int { return e.visited }

// BudgetCut reports that Next stopped at the MaxVisits budget while the
// walk still held unvisited nodes. Every queued node's subtree holds a
// satisfying assignment, so this means the budget cut the stream
// short; a walk that ends exactly at its budget
// is not cut.
func (e *CostEnum) BudgetCut() bool { return e.cut }

// Emitted counts assignments returned so far — the resumable cursor
// into the deterministic stream.
func (e *CostEnum) Emitted() int { return e.emitted }

// minSat returns the cheapest completion of the restriction n under
// hcosts: 0 for the one-terminal, +Inf for the zero-terminal.
func (e *CostEnum) minSat(n *Node) float64 {
	if n.IsTerminal() {
		if n == e.m.one {
			return 0
		}
		return math.Inf(1)
	}
	if v := e.minMemo[2*n.id]; v >= 0 {
		return v
	}
	v := min(e.minSat(n.Low), e.hcosts[n.Var]+e.minSat(n.High))
	e.minMemo[2*n.id] = v
	return v
}

// minNE returns the cheapest completion under hcosts of the restriction
// n (all variables below level decided, so n.Var >= level) with at
// least one true variable at or above level, +Inf if there is none. It
// prunes the subset tree: a node's subtree holds a satisfying subset
// iff this is finite for the node's restriction and last index.
func (e *CostEnum) minNE(n *Node, level int) float64 {
	if level >= e.m.numVars {
		return math.Inf(1)
	}
	if n.Var > level {
		// level is unconstrained in n, and the cheapest of the free
		// variables below n.Var: set it true, or leave them all false.
		return min(e.hcosts[level]+e.minSat(n), e.minNE(n, n.Var))
	}
	// n.Var == level, so the memo key needs no level component.
	if v := e.minMemo[2*n.id+1]; v >= 0 {
		return v
	}
	v := min(e.hcosts[level]+e.minSat(n.High), e.minNE(n.Low, level+1))
	e.minMemo[2*n.id+1] = v
	return v
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
