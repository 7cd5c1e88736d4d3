// Package boolfunc implements reduced ordered binary decision diagrams
// (ROBDDs) with hash-consing and memoized apply — the standard symbolic
// boolean-function substrate of EDA tools (the paper characterizes the
// set of possible resource allocations "by traversing our specification
// graph and setting up one boolean equation"; this package makes that
// equation a first-class object that can be evaluated, combined and
// model-counted without enumerating the 2^n assignment space).
//
// Variables are dense non-negative integers ordered by their index
// (variable 0 closest to the root). All operations return canonical
// nodes: two equivalent functions of one manager are the same node id,
// so equivalence checking is integer comparison.
//
// The manager is flat, in the layout of BuDDy and CUDD (Brace, Rudell
// and Bryant, "Efficient implementation of a BDD package", DAC 1990): a
// node is an int32 index into parallel level/low/high slices, the
// unique table is open addressing over those indices, and Apply and
// Restrict memoize into a direct-mapped computed table that may lose
// entries. Losing one costs only recomputation: the recomputed result
// is built through the unique table, so it is the same node.
package boolfunc

import (
	"fmt"
	"math"
)

// Node is a BDD node of one Manager: 0 is the constant false, 1 the
// constant true, and internal nodes are numbered from 2 in creation
// order. A node tests variable Level(n) and branches to Low(n) (the
// variable false) and High(n) (the variable true). A Node is never
// negative: a manager holds fewer than 2^31 nodes (grow panics past
// that), so a Node's top bit is free for a flag, as CostEnum's records
// use it.
type Node int32

// The terminal nodes.
const (
	zero Node = 0
	one  Node = 1
)

// IsTerminal reports whether the node is a constant.
func (n Node) IsTerminal() bool { return n <= one }

// Manager owns a universe of BDD nodes over a fixed number of
// variables. Its tables grow by doubling and never shrink: a manager
// lives for one computation, so it collects no garbage.
type Manager struct {
	numVars int
	// Node n tests variable level[n] and branches to low[n] and
	// high[n]; the terminals sit at level numVars and branch to
	// themselves. The three slices share one capacity, the node
	// capacity.
	level     []int32
	low, high []Node
	// unique holds every internal node at the slot its (level, low,
	// high) hashes to, probing linearly; 0 marks an empty slot. Its
	// length is twice the node capacity, so it is at most half full.
	unique []Node
	// cache is the computed table of Apply and Restrict: one entry per
	// slot, overwritten on collision. Its length is half the node
	// capacity (capped by cacheMax when that is positive, which only
	// tests set).
	cache    []cacheEntry
	cacheMax int
}

// cacheEntry memoizes r = op(a, b). Apply stores its Op; Restrict
// stores restrictOp + 2·variable + value with b = 0. The zero entry
// never matches a lookup: both operands terminal is answered before
// the table is consulted.
type cacheEntry struct {
	op   int32
	a, b Node
	r    Node
}

// restrictOp is the first computed-table op code of Restrict.
const restrictOp = 4

// NewManager creates a manager for functions over numVars variables.
// Its node capacity starts at the first power of two, at least 16,
// that holds the terminals and both literals of every variable.
func NewManager(numVars int) *Manager { return NewManagerSized(numVars, 0) }

// NewManagerSized is NewManager with a node-capacity hint: the tables
// start at the first power of two that also holds nodes nodes, so a
// caller that knows roughly how large its functions get builds them
// without growing the tables on the way.
func NewManagerSized(numVars, nodes int) *Manager {
	c := 16
	for c < max(2*numVars+2, nodes) {
		c *= 2
	}
	m := &Manager{
		numVars: numVars,
		level:   make([]int32, 2, c),
		low:     make([]Node, 2, c),
		high:    make([]Node, 2, c),
		unique:  make([]Node, 2*c),
		cache:   make([]cacheEntry, c/2),
	}
	m.level[zero], m.level[one] = int32(numVars), int32(numVars)
	m.low[one], m.high[one] = one, one
	return m
}

// NumVars returns the variable count.
func (m *Manager) NumVars() int { return m.numVars }

// Size returns the number of internal nodes created so far (canonical
// table size), a measure of representation compactness.
func (m *Manager) Size() int { return len(m.level) - 2 }

// False returns the constant-false function.
func (m *Manager) False() Node { return zero }

// True returns the constant-true function.
func (m *Manager) True() Node { return one }

// Level returns the variable n tests; for a terminal, NumVars().
func (m *Manager) Level(n Node) int { return int(m.level[n]) }

// Low returns n's branch for its variable false (n itself for a
// terminal).
func (m *Manager) Low(n Node) Node { return m.low[n] }

// High returns n's branch for its variable true (n itself for a
// terminal).
func (m *Manager) High(n Node) Node { return m.high[n] }

// Var returns the function that is true iff variable v is true.
func (m *Manager) Var(v int) Node {
	m.checkVar(v)
	return m.mk(int32(v), zero, one)
}

// NotVar returns the function that is true iff variable v is false.
func (m *Manager) NotVar(v int) Node {
	m.checkVar(v)
	return m.mk(int32(v), one, zero)
}

// MakeNode returns the canonical function "if variable v then high
// else low" for branches that depend only on variables after v. It
// builds a function bottom-up in variable order with one unique-table
// lookup per node, where Apply would recurse over both operands.
func (m *Manager) MakeNode(v int, low, high Node) Node {
	m.checkVar(v)
	if int(m.level[low]) <= v || int(m.level[high]) <= v {
		panic(fmt.Sprintf("boolfunc: MakeNode(%d) branches must test later variables only", v))
	}
	return m.mk(int32(v), low, high)
}

func (m *Manager) checkVar(v int) {
	if v < 0 || v >= m.numVars {
		panic(fmt.Sprintf("boolfunc: variable %d out of range [0,%d)", v, m.numVars))
	}
}

// mk returns the canonical node (v, low, high), applying the reduction
// rules (redundant test elimination and sharing).
func (m *Manager) mk(v int32, low, high Node) Node {
	if low == high {
		return low
	}
	i := m.slot(v, low, high)
	if n := m.unique[i]; n != zero {
		return n
	}
	if len(m.level) == cap(m.level) {
		m.grow()
		i = m.slot(v, low, high)
	}
	n := Node(len(m.level))
	m.level = append(m.level, v)
	m.low = append(m.low, low)
	m.high = append(m.high, high)
	m.unique[i] = n
	return n
}

// slot returns the unique-table slot of (v, low, high): the one holding
// that node, or the empty slot where it belongs.
func (m *Manager) slot(v int32, low, high Node) uint32 {
	mask := uint32(len(m.unique) - 1)
	i := hash3(uint32(v), uint32(low), uint32(high)) & mask
	for {
		n := m.unique[i]
		if n == zero || m.level[n] == v && m.low[n] == low && m.high[n] == high {
			return i
		}
		i = (i + 1) & mask
	}
}

// grow doubles the node capacity and, with it, the unique table (every
// node reinserted) and the computed table (every entry moved to its new
// slot; entries that now collide are lost).
func (m *Manager) grow() {
	c := 2 * cap(m.level)
	if c > math.MaxInt32 {
		panic("boolfunc: node table exceeds 2^31 nodes")
	}
	m.level = append(make([]int32, 0, c), m.level...)
	m.low = append(make([]Node, 0, c), m.low...)
	m.high = append(make([]Node, 0, c), m.high...)
	m.unique = make([]Node, 2*c)
	for n := Node(2); int(n) < len(m.level); n++ {
		m.unique[m.slot(m.level[n], m.low[n], m.high[n])] = n
	}
	size := c / 2
	if m.cacheMax > 0 {
		size = min(size, m.cacheMax)
	}
	old := m.cache
	m.cache = make([]cacheEntry, size)
	for _, e := range old {
		if e != (cacheEntry{}) {
			m.cache[m.cacheSlot(e.op, e.a, e.b)] = e
		}
	}
}

// hash3 mixes three 32-bit keys into a table index: a multiplicative
// combine, then MurmurHash3's finalizer, so every input bit reaches the
// low bits a power-of-two table masks.
func hash3(a, b, c uint32) uint32 {
	h := (a*0x9E3779B1+b)*0x9E3779B1 + c
	h ^= h >> 16
	h *= 0x85EBCA6B
	h ^= h >> 13
	h *= 0xC2B2AE35
	return h ^ h>>16
}

// cacheSlot returns the computed-table slot of (op, a, b).
func (m *Manager) cacheSlot(op int32, a, b Node) uint32 {
	return hash3(uint32(op), uint32(a), uint32(b)) & uint32(len(m.cache)-1)
}

// cached looks (op, a, b) up in the computed table.
func (m *Manager) cached(op int32, a, b Node) (Node, bool) {
	e := m.cache[m.cacheSlot(op, a, b)]
	return e.r, e.op == op && e.a == a && e.b == b
}

// remember stores r = op(a, b) in the computed table, evicting the
// slot's previous entry.
func (m *Manager) remember(op int32, a, b, r Node) {
	m.cache[m.cacheSlot(op, a, b)] = cacheEntry{op: op, a: a, b: b, r: r}
}

// Op identifies a binary boolean operation for Apply.
type Op int

// Binary operations.
const (
	And Op = iota
	Or
	Xor
	Diff // a ∧ ¬b
)

func (o Op) eval(a, b bool) bool {
	switch o {
	case And:
		return a && b
	case Or:
		return a || b
	case Xor:
		return a != b
	case Diff:
		return a && !b
	default:
		panic("boolfunc: unknown op")
	}
}

func constant(b bool) Node {
	if b {
		return one
	}
	return zero
}

// Apply combines two functions with the given operation (Bryant's
// algorithm, memoized).
func (m *Manager) Apply(op Op, a, b Node) Node {
	if a.IsTerminal() && b.IsTerminal() {
		return constant(op.eval(a == one, b == one))
	}
	// Operator-specific short circuits.
	switch op {
	case And:
		if a == zero || b == zero {
			return zero
		}
		if a == one {
			return b
		}
		if b == one {
			return a
		}
		if a == b {
			return a
		}
	case Or:
		if a == one || b == one {
			return one
		}
		if a == zero {
			return b
		}
		if b == zero {
			return a
		}
		if a == b {
			return a
		}
	case Xor:
		if a == b {
			return zero
		}
	case Diff:
		if a == zero || b == one {
			return zero
		}
		if b == zero {
			return a
		}
		if a == b {
			return zero
		}
	}
	if r, ok := m.cached(int32(op), a, b); ok {
		return r
	}
	v := min(m.level[a], m.level[b])
	a0, a1 := m.cofactors(a, v)
	b0, b1 := m.cofactors(b, v)
	r := m.mk(v, m.Apply(op, a0, b0), m.Apply(op, a1, b1))
	m.remember(int32(op), a, b, r)
	return r
}

// cofactors returns n's branches for variable v false and true: its own
// branches if n tests v, n twice otherwise.
func (m *Manager) cofactors(n Node, v int32) (Node, Node) {
	if m.level[n] != v {
		return n, n
	}
	return m.low[n], m.high[n]
}

// Not returns the complement of a function.
func (m *Manager) Not(a Node) Node {
	return m.Apply(Diff, one, a)
}

// AndAll conjoins a list of functions (True for an empty list).
func (m *Manager) AndAll(ns ...Node) Node {
	out := one
	for _, n := range ns {
		out = m.Apply(And, out, n)
	}
	return out
}

// Restrict fixes variable v to the given value.
func (m *Manager) Restrict(n Node, v int, value bool) Node {
	if n.IsTerminal() || int(m.level[n]) > v {
		return n
	}
	if int(m.level[n]) == v {
		if value {
			return m.high[n]
		}
		return m.low[n]
	}
	op := restrictOp + int32(v)<<1
	if value {
		op++
	}
	if r, ok := m.cached(op, n, zero); ok {
		return r
	}
	r := m.mk(m.level[n], m.Restrict(m.low[n], v, value), m.Restrict(m.high[n], v, value))
	m.remember(op, n, zero, r)
	return r
}

// Eval evaluates the function under a complete assignment (indexed by
// variable).
func (m *Manager) Eval(n Node, assignment []bool) bool {
	for !n.IsTerminal() {
		if assignment[m.level[n]] {
			n = m.high[n]
		} else {
			n = m.low[n]
		}
	}
	return n == one
}

// SatCount returns the number of satisfying assignments over the full
// variable universe, as float64. A float64 holds every integer below
// 2^53 exactly but rounds larger counts to the nearest representable
// value; use SatCountBig when the count may reach that limit (for this
// package's allocation universes, from 53 variables on).
func (m *Manager) SatCount(n Node) float64 {
	memo := make([]float64, len(m.level))
	memo[zero], memo[one] = 0, 1
	for i := 2; i < len(memo); i++ {
		memo[i] = -1
	}
	var count func(n Node) float64
	count = func(n Node) float64 {
		if c := memo[n]; c >= 0 {
			return c
		}
		// Each branch skips (child level - level - 1) unconstrained
		// variables.
		lv, lo, hi := m.level[n], m.low[n], m.high[n]
		c := count(lo)*math.Pow(2, float64(m.level[lo]-lv-1)) +
			count(hi)*math.Pow(2, float64(m.level[hi]-lv-1))
		memo[n] = c
		return c
	}
	return count(n) * math.Pow(2, float64(m.level[n]))
}

// AnySat returns one satisfying assignment (nil if unsatisfiable).
// Unconstrained variables are reported false.
func (m *Manager) AnySat(n Node) []bool {
	if n == zero {
		return nil
	}
	out := make([]bool, m.numVars)
	for !n.IsTerminal() {
		if m.low[n] != zero {
			n = m.low[n]
		} else {
			out[m.level[n]] = true
			n = m.high[n]
		}
	}
	return out
}

// MinCostSat returns a satisfying assignment minimizing the sum of
// costs of true variables, together with that cost. It returns ok=false
// for the unsatisfiable function. Costs must be non-negative. This is
// the symbolic counterpart of the paper's cost-ordered candidate
// iteration: the cheapest possible resource allocation of a boolean
// allocation constraint in one BDD walk.
func (m *Manager) MinCostSat(n Node, costs []float64) (assignment []bool, cost float64, ok bool) {
	if len(costs) != m.numVars {
		panic("boolfunc: cost vector length mismatch")
	}
	type res struct {
		cost  float64
		ok    bool
		high  bool // branch taken at this node
		known bool
	}
	memo := make([]res, len(m.level))
	memo[zero] = res{known: true}
	memo[one] = res{ok: true, known: true}
	var best func(n Node) res
	best = func(n Node) res {
		if memo[n].known {
			return memo[n]
		}
		lo := best(m.low[n])
		hi := best(m.high[n])
		c := costs[m.level[n]]
		r := res{ok: lo.ok || hi.ok, known: true}
		switch {
		case lo.ok && (!hi.ok || lo.cost <= hi.cost+c):
			r.cost = lo.cost
		case hi.ok:
			r.cost = hi.cost + c
			r.high = true
		}
		memo[n] = r
		return r
	}
	r := best(n)
	if !r.ok {
		return nil, 0, false
	}
	// Reconstruct the assignment along the recorded choices.
	out := make([]bool, m.numVars)
	for !n.IsTerminal() {
		if memo[n].high {
			out[m.level[n]] = true
			n = m.high[n]
		} else {
			n = m.low[n]
		}
	}
	return out, r.cost, true
}

// DOT renders the BDD rooted at n in Graphviz format: solid edges for
// the high (true) branch, dashed for the low branch, boxes for the
// terminals. Variable labels come from names (index by variable; nil
// falls back to x<i>).
func (m *Manager) DOT(n Node, names []string) string {
	var b []byte
	b = append(b, "digraph bdd {\n  rankdir=TB;\n"...)
	b = append(b, "  \"T\" [shape=box,label=\"1\"];\n  \"F\" [shape=box,label=\"0\"];\n"...)
	seen := make([]bool, len(m.level))
	label := func(n Node) string {
		switch n {
		case one:
			return "T"
		case zero:
			return "F"
		}
		return fmt.Sprintf("n%d", n)
	}
	var walk func(n Node)
	walk = func(n Node) {
		if n.IsTerminal() || seen[n] {
			return
		}
		seen[n] = true
		v := int(m.level[n])
		name := fmt.Sprintf("x%d", v)
		if names != nil && v < len(names) {
			name = names[v]
		}
		b = append(b, fmt.Sprintf("  %q [label=%q];\n", label(n), name)...)
		b = append(b, fmt.Sprintf("  %q -> %q [style=dashed];\n", label(n), label(m.low[n]))...)
		b = append(b, fmt.Sprintf("  %q -> %q;\n", label(n), label(m.high[n]))...)
		walk(m.low[n])
		walk(m.high[n])
	}
	walk(n)
	b = append(b, "}\n"...)
	return string(b)
}
