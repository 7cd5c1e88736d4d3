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
	f     Node
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

	// The frontier is a binary heap of record ids over records that
	// never move. Record r holds a live node's key, restriction and
	// index set as a row of `words` words, bit i standing for variable
	// i; the node's last index is the row's top set bit. Records sit in
	// blocks of blockRecords, found by the id's high bits and, within
	// the block, its low bits. Heap slot i lives in the record with id
	// i, whatever node that record holds: the heap's ids share the
	// blocks, so growth copies none of them, and size counts the slots
	// in use. A popped node hands its record to one of its children and
	// a childless node frees it; free records form a list threaded
	// through their row's first word, headed by free (-1 when empty),
	// and rows counts the records ever handed out. When all are taken,
	// grow adds a quarter of the blocks there are, so a walk allocates
	// O(log peak frontier) times rather than per visited node, and
	// copies only the block table, never a record. buf is the reused
	// Next result.
	blocks []*recBlock
	size   int32
	words  int
	rows   int32
	free   int32
	buf    []int
}

// recBlock holds blockRecords frontier records. A one-word row sits in
// its record, so the sifts' tie test reads nothing else; with the rows
// beside the records the Set-Top walk ran about 10% slower. A row of
// more than one word lives outside its record, slot i's in
// rows[i·words : (i+1)·words]; rows is nil when rows are one word.
type recBlock struct {
	recs [blockRecords]record
	rows []uint64
}

// record is a live subset-tree node and one heap slot, 24 bytes: its
// key (see CostEnum); in pre, the function restricted by the node's
// bits on every variable below its last index (the last variable
// itself is resolved lazily, because the replace child needs its false
// branch), with atKey set when the node's own cost equals its key; the
// id of the record in heap slot i, where i is this record's own id;
// and the index set's row when it is one word. A node's cost is not
// stored: it is the key under atKey, and key − minNE(pre, last) +
// costs[last] otherwise, exact under the guard.
type record struct {
	key  float64
	pre  uint32
	slot int32
	row  [1]uint64
}

// atKey is the record.pre bit marking a node whose cost is its key.
// A Node is a non-negative int32, so its top bit is free.
const atKey = 1 << 31

// Record r is slot r&blockMask of block r>>blockShift.
const (
	blockShift   = 6
	blockRecords = 1 << blockShift
	blockMask    = blockRecords - 1
)

// minFrontier is the record capacity of a walk's first batch of
// blocks and the least any batch adds; a later batch adds a quarter of
// the capacity when that is more. The heap's slots are the records',
// so a push never grows it.
const minFrontier = blockRecords

// NewCostEnum prepares a cost-ordered enumeration of the satisfying
// assignments of f. costs must have one non-negative entry per manager
// variable, nondecreasing in variable order (see the type comment).
func (m *Manager) NewCostEnum(f Node, costs []float64) *CostEnum {
	m.checkCosts(costs)
	e := &CostEnum{
		m:        m,
		f:        f,
		costs:    costs,
		hcosts:   costs,
		minMemo:  make([]float64, 2*len(m.level)),
		zeroMemo: make([]int8, len(m.level)),
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
				r := e.singleton(0)
				e.set(r, 0, h, e.f, 0)
				e.push(r)
			}
		}
		if e.zeroSat(e.f) {
			e.emitted++
			return e.buf[:0], 0, true
		}
	}
	for e.size > 0 {
		if e.MaxVisits > 0 && e.visited >= e.MaxVisits {
			e.cut = true
			return nil, 0, false
		}
		// The top stays in place until a child overwrites it, which
		// saves the sift of a separate pop; the children may take over
		// its record, so read everything it still needs first.
		cur := *slotOf(e.blocks, 0)
		x := *e.rec(cur)
		e.visited++
		last := int(lastIndex(e.row(cur)))
		pre := Node(x.pre &^ atKey)
		cost := x.key
		if x.pre&atKey == 0 {
			cost = x.key - e.minNE(pre, last) + e.costs[last]
		}
		n0, n1 := e.m.cofactors(pre, int32(last))
		sat := e.zeroSat(n1)
		if sat {
			e.emitted++
			e.buf = e.appendIndices(e.buf[:0], cur)
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
		// When both survive, the replace child takes the top's slot and
		// the extend child is pushed after it: the replace child drops
		// the node's last element, so it usually keys below the extend
		// child, sinks less from the top, and leaves the extend child
		// less to rise past. The pops are the same either way, because
		// the comparator is a strict total order.
		r := cur
		if ext {
			if rep {
				r = e.newRow()
				copy(e.row(r), e.row(cur))
			}
			e.row(r)[next>>6] |= 1 << (next & 63)
			e.set(r, cost, hExt, n1, next)
		}
		if rep {
			row := e.row(cur)
			row[last>>6] &^= 1 << (last & 63)
			row[next>>6] |= 1 << (next & 63)
			e.set(cur, cost-e.costs[last], hRep, n0, next)
			e.place(cur, true)
		}
		if ext {
			e.place(r, !rep)
		}
		if !ext && !rep {
			e.freeRow(cur)
			e.popTop()
		}
		if sat {
			return e.buf, cost, true
		}
	}
	return nil, 0, false
}

// set writes record r as the subset-tree node with largest index k and
// restriction p, from the cost pc of its elements below k and
// h = minNE(p, k), which must be finite; the row must already hold the
// node's index set. Without the guard h is 0, and the key is the node's
// cost, summed as the plain scan sums it.
func (e *CostEnum) set(r int32, pc, h float64, p Node, k int) {
	x := e.rec(r)
	x.key, x.pre = pc+h, uint32(p)
	if h == e.hcosts[k] {
		x.key, x.pre = pc+e.costs[k], uint32(p)|atKey
	}
}

// recOf returns record r and its block.
func recOf(blocks []*recBlock, r int32) (*recBlock, *record) {
	b := blocks[r>>blockShift]
	return b, &b.recs[r&blockMask]
}

// slotOf returns heap slot i, which lives in record i.
func slotOf(blocks []*recBlock, i int32) *int32 {
	return &blocks[i>>blockShift].recs[i&blockMask].slot
}

// rec returns record r.
func (e *CostEnum) rec(r int32) *record {
	_, x := recOf(e.blocks, r)
	return x
}

// less orders frontier records by key, then nodes below their key
// before nodes at it, then by descending lexicographic index sequence —
// the equal-cost tie-break of alloc.subsetHeap.Less, which the type
// comment relies on for stream identity.
func (e *CostEnum) less(a, b int32) bool {
	ab, x := recOf(e.blocks, a)
	bb, y := recOf(e.blocks, b)
	return e.before(ab, bb, x, y, a, b)
}

// before is less for records x = rec(a) in block ab and y = rec(b) in
// block bb already found, so a sift finds each record it compares once.
// It inlines, and only equal keys reach the call to tied.
func (e *CostEnum) before(ab, bb *recBlock, x, y *record, a, b int32) bool {
	return x.key < y.key || x.key == y.key && e.tied(ab, bb, x, y, a, b)
}

// tied is before for records of equal keys.
func (e *CostEnum) tied(ab, bb *recBlock, x, y *record, a, b int32) bool {
	if kx, ky := x.pre&atKey, y.pre&atKey; kx != ky {
		return ky != 0
	}
	ra, rb := x.row[:], y.row[:]
	if e.words > 1 {
		ra, rb = ab.row(a, e.words), bb.row(b, e.words)
	}
	return tieBefore(ra, rb, lastIndex(ra), lastIndex(rb))
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

// lastIndex returns the largest element of a nonempty row: the top set
// bit of its highest nonzero word.
func lastIndex(row []uint64) int32 {
	w := len(row) - 1
	for row[w] == 0 {
		w--
	}
	return int32(w<<6 + bits.Len64(row[w]) - 1)
}

// push adds record r to the frontier. There are as many heap slots as
// records, so it never grows here.
func (e *CostEnum) push(r int32) {
	*slotOf(e.blocks, e.size) = r
	e.size++
	e.up(e.size - 1)
}

// place adds record r to the frontier, into the popped top's slot when
// intoTop is set.
func (e *CostEnum) place(r int32, intoTop bool) {
	if !intoTop {
		e.push(r)
		return
	}
	*slotOf(e.blocks, 0) = r
	e.down(0)
}

// popTop removes the heap's top id.
func (e *CostEnum) popTop() {
	n := e.size - 1
	*slotOf(e.blocks, 0) = *slotOf(e.blocks, n)
	e.size = n
	if n > 0 {
		e.down(0)
	}
}

// up and down sift the id in heap slot j or i. They keep the block table
// in a local and hand each record's block to the comparator, so a sift
// reads e.blocks once and a tie test finds a multi-word row without it.
func (e *CostEnum) up(j int32) {
	blocks := e.blocks
	hj := slotOf(blocks, j)
	x := *hj
	xb, xr := recOf(blocks, x)
	for j > 0 {
		i := (j - 1) >> 1
		hi := slotOf(blocks, i)
		p := *hi
		pb, pr := recOf(blocks, p)
		if !e.before(xb, pb, xr, pr, x, p) {
			break
		}
		*hj = p
		j, hj = i, hi
	}
	*hj = x
}

func (e *CostEnum) down(i int32) {
	blocks, n := e.blocks, e.size
	hi := slotOf(blocks, i)
	x := *hi
	xb, xr := recOf(blocks, x)
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		hj := slotOf(blocks, j)
		c := *hj
		cb, cr := recOf(blocks, c)
		if k := j + 1; k < n {
			hk := slotOf(blocks, k)
			d := *hk
			db, dr := recOf(blocks, d)
			if e.before(db, cb, dr, cr, d, c) {
				j, hj, c, cb, cr = k, hk, d, db, dr
			}
		}
		if !e.before(cb, xb, cr, xr, c, x) {
			break
		}
		*hi = c
		i, hi = j, hj
	}
	*hi = x
}

// row returns record r's index-set row.
func (e *CostEnum) row(r int32) []uint64 {
	b, x := recOf(e.blocks, r)
	if e.words == 1 {
		return x.row[:]
	}
	return b.row(r, e.words)
}

// row returns the multi-word row of record r, which is in b.
func (b *recBlock) row(r int32, words int) []uint64 {
	i := int(r&blockMask) * words
	return b.rows[i : i+words]
}

// newRow takes a record off the free list, or hands out a fresh one,
// growing the blocks when all are taken. The record's contents are
// unspecified.
func (e *CostEnum) newRow() int32 {
	if r := e.free; r >= 0 {
		e.free = int32(uint32(e.row(r)[0]))
		return r
	}
	if int(e.rows) == len(e.blocks)<<blockShift {
		e.grow()
	}
	e.rows++
	return e.rows - 1
}

// grow adds a quarter of the blocks there are (minFrontier records'
// worth at least) in one batch, and one slab of their rows when rows
// are longer than a word, appended to the block table. Records already
// handed out, and with them the heap's ids, stay where they are, so the
// capacity follows the peak frontier within a quarter.
func (e *CostEnum) grow() {
	batch := make([]recBlock, max(minFrontier>>blockShift, len(e.blocks)/4))
	var rows []uint64
	size := blockRecords * e.words
	if e.words > 1 {
		rows = make([]uint64, len(batch)*size)
	}
	for i := range batch {
		b := &batch[i]
		if rows != nil {
			b.rows = rows[i*size : (i+1)*size : (i+1)*size]
		}
		e.blocks = append(e.blocks, b)
	}
}

// freeRow puts record r on the free list.
func (e *CostEnum) freeRow(r int32) {
	e.row(r)[0] = uint64(uint32(e.free))
	e.free = r
}

// singleton returns a new record whose row holds the index set {k}.
func (e *CostEnum) singleton(k int) int32 {
	r := e.newRow()
	row := e.row(r)
	clear(row)
	row[k>>6] = 1 << (k & 63)
	return r
}

// appendIndices appends the elements of record r's row to dst in
// ascending order.
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
func (e *CostEnum) minSat(n Node) float64 {
	if n.IsTerminal() {
		if n == one {
			return 0
		}
		return math.Inf(1)
	}
	if v := e.minMemo[2*n]; v >= 0 {
		return v
	}
	m := e.m
	v := min(e.minSat(m.low[n]), e.hcosts[m.level[n]]+e.minSat(m.high[n]))
	e.minMemo[2*n] = v
	return v
}

// minNE returns the cheapest completion under hcosts of the restriction
// n (all variables below level decided, so n's level is >= level) with
// at least one true variable at or above level, +Inf if there is none.
// It prunes the subset tree: a node's subtree holds a satisfying subset
// iff this is finite for the node's restriction and last index.
func (e *CostEnum) minNE(n Node, level int) float64 {
	m := e.m
	if level >= m.numVars {
		return math.Inf(1)
	}
	if nv := int(m.level[n]); nv > level {
		// level is unconstrained in n, and the cheapest of the free
		// variables below nv: set it true, or leave them all false.
		return min(e.hcosts[level]+e.minSat(n), e.minNE(n, nv))
	}
	// n tests level itself, so the memo key needs no level component.
	if v := e.minMemo[2*n+1]; v >= 0 {
		return v
	}
	v := min(e.hcosts[level]+e.minSat(m.high[n]), e.minNE(m.low[n], level+1))
	e.minMemo[2*n+1] = v
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
func (e *CostEnum) zeroSat(n Node) bool {
	if n.IsTerminal() {
		return n == one
	}
	if v := e.zeroMemo[n]; v != 0 {
		return v == 1
	}
	r := e.zeroSat(e.m.low[n])
	e.zeroMemo[n] = memoBool(r)
	return r
}

// SatCountBig returns the exact number of satisfying assignments over
// the full variable universe as a big integer. Use it instead of
// SatCount whenever the count may reach 2^53, where float64 loses
// exactness.
func (m *Manager) SatCountBig(n Node) *big.Int {
	memo := make([]*big.Int, len(m.level))
	memo[zero], memo[one] = big.NewInt(0), big.NewInt(1)
	var count func(n Node) *big.Int
	count = func(n Node) *big.Int {
		if c := memo[n]; c != nil {
			return c
		}
		// Each branch skips (child level - level - 1) unconstrained
		// variables.
		lv, lo, hi := m.level[n], m.low[n], m.high[n]
		c := new(big.Int).Lsh(count(lo), uint(m.level[lo]-lv-1))
		c.Add(c, new(big.Int).Lsh(count(hi), uint(m.level[hi]-lv-1)))
		memo[n] = c
		return c
	}
	return new(big.Int).Lsh(count(n), uint(m.level[n]))
}
