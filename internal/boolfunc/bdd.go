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
// nodes: two equivalent functions are represented by the same node
// pointer, so equivalence checking is pointer comparison.
package boolfunc

import (
	"fmt"
	"math"
)

// Node is a BDD node. The zero-terminal and one-terminal are shared
// sentinels; internal nodes test Var and branch to Low (Var=false) and
// High (Var=true). Nodes are immutable and owned by their Manager.
type Node struct {
	Var       int
	Low, High *Node
	id        int
}

// IsTerminal reports whether the node is a constant.
func (n *Node) IsTerminal() bool { return n.Low == nil }

// Manager owns a universe of BDD nodes over a fixed number of
// variables.
type Manager struct {
	numVars int
	zero    *Node
	one     *Node
	unique  map[[3]int]*Node
	applyC  map[[3]int]*Node
	nextID  int
}

// NewManager creates a manager for functions over numVars variables.
func NewManager(numVars int) *Manager {
	m := &Manager{
		numVars: numVars,
		unique:  map[[3]int]*Node{},
		applyC:  map[[3]int]*Node{},
	}
	m.zero = &Node{Var: numVars, id: 0}
	m.one = &Node{Var: numVars, id: 1}
	m.nextID = 2
	return m
}

// NumVars returns the variable count.
func (m *Manager) NumVars() int { return m.numVars }

// Size returns the number of live internal nodes (canonical table
// size), a measure of representation compactness.
func (m *Manager) Size() int { return len(m.unique) }

// False returns the constant-false function.
func (m *Manager) False() *Node { return m.zero }

// True returns the constant-true function.
func (m *Manager) True() *Node { return m.one }

// Var returns the function that is true iff variable v is true.
func (m *Manager) Var(v int) *Node {
	return m.mk(v, m.zero, m.one)
}

// NotVar returns the function that is true iff variable v is false.
func (m *Manager) NotVar(v int) *Node {
	return m.mk(v, m.one, m.zero)
}

// mk returns the canonical node (v, low, high), applying the reduction
// rules (redundant test elimination and sharing).
func (m *Manager) mk(v int, low, high *Node) *Node {
	if v < 0 || v >= m.numVars {
		panic(fmt.Sprintf("boolfunc: variable %d out of range [0,%d)", v, m.numVars))
	}
	if low == high {
		return low
	}
	key := [3]int{v, low.id, high.id}
	if n, ok := m.unique[key]; ok {
		return n
	}
	n := &Node{Var: v, Low: low, High: high, id: m.nextID}
	m.nextID++
	m.unique[key] = n
	return n
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

func (m *Manager) terminalValue(n *Node) (bool, bool) {
	switch n {
	case m.zero:
		return false, true
	case m.one:
		return true, true
	}
	return false, false
}

func (m *Manager) constant(b bool) *Node {
	if b {
		return m.one
	}
	return m.zero
}

// Apply combines two functions with the given operation (Bryant's
// algorithm, memoized).
func (m *Manager) Apply(op Op, a, b *Node) *Node {
	if av, aok := m.terminalValue(a); aok {
		if bv, bok := m.terminalValue(b); bok {
			return m.constant(op.eval(av, bv))
		}
	}
	// Operator-specific short circuits.
	switch op {
	case And:
		if a == m.zero || b == m.zero {
			return m.zero
		}
		if a == m.one {
			return b
		}
		if b == m.one {
			return a
		}
		if a == b {
			return a
		}
	case Or:
		if a == m.one || b == m.one {
			return m.one
		}
		if a == m.zero {
			return b
		}
		if b == m.zero {
			return a
		}
		if a == b {
			return a
		}
	case Xor:
		if a == b {
			return m.zero
		}
	case Diff:
		if a == m.zero || b == m.one {
			return m.zero
		}
		if b == m.zero {
			return a
		}
		if a == b {
			return m.zero
		}
	}
	key := [3]int{int(op)<<40 | a.id, b.id, 0}
	if r, ok := m.applyC[key]; ok {
		return r
	}
	v := a.Var
	if b.Var < v {
		v = b.Var
	}
	a0, a1 := m.cofactors(a, v)
	b0, b1 := m.cofactors(b, v)
	r := m.mk(v, m.Apply(op, a0, b0), m.Apply(op, a1, b1))
	m.applyC[key] = r
	return r
}

func (m *Manager) cofactors(n *Node, v int) (*Node, *Node) {
	if n.IsTerminal() || n.Var != v {
		return n, n
	}
	return n.Low, n.High
}

// Not returns the complement of a function.
func (m *Manager) Not(a *Node) *Node {
	return m.Apply(Diff, m.one, a)
}

// AndAll conjoins a list of functions (True for an empty list).
func (m *Manager) AndAll(ns ...*Node) *Node {
	out := m.one
	for _, n := range ns {
		out = m.Apply(And, out, n)
	}
	return out
}

// Restrict fixes variable v to the given value.
func (m *Manager) Restrict(n *Node, v int, value bool) *Node {
	if n.IsTerminal() || n.Var > v {
		return n
	}
	if n.Var == v {
		if value {
			return n.High
		}
		return n.Low
	}
	key := [3]int{n.id, v<<1 | boolBit(value), -1}
	if r, ok := m.applyC[key]; ok {
		return r
	}
	r := m.mk(n.Var, m.Restrict(n.Low, v, value), m.Restrict(n.High, v, value))
	m.applyC[key] = r
	return r
}

func boolBit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Eval evaluates the function under a complete assignment (indexed by
// variable).
func (m *Manager) Eval(n *Node, assignment []bool) bool {
	for !n.IsTerminal() {
		if assignment[n.Var] {
			n = n.High
		} else {
			n = n.Low
		}
	}
	return n == m.one
}

// SatCount returns the number of satisfying assignments over the full
// variable universe, as float64. A float64 holds every integer below
// 2^53 exactly but rounds larger counts to the nearest representable
// value; use SatCountBig when the count may reach that limit (for this
// package's allocation universes, from 53 variables on).
func (m *Manager) SatCount(n *Node) float64 {
	memo := map[int]float64{}
	var count func(n *Node) float64
	count = func(n *Node) float64 {
		if n == m.zero {
			return 0
		}
		if n == m.one {
			return 1
		}
		if c, ok := memo[n.id]; ok {
			return c
		}
		// Each branch skips (child.Var - n.Var - 1) unconstrained
		// variables.
		lo := count(n.Low) * math.Pow(2, float64(n.Low.Var-n.Var-1))
		hi := count(n.High) * math.Pow(2, float64(n.High.Var-n.Var-1))
		c := lo + hi
		memo[n.id] = c
		return c
	}
	return count(n) * math.Pow(2, float64(n.Var))
}

// AnySat returns one satisfying assignment (nil if unsatisfiable).
// Unconstrained variables are reported false.
func (m *Manager) AnySat(n *Node) []bool {
	if n == m.zero {
		return nil
	}
	out := make([]bool, m.numVars)
	for !n.IsTerminal() {
		if n.Low != m.zero {
			n = n.Low
		} else {
			out[n.Var] = true
			n = n.High
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
func (m *Manager) MinCostSat(n *Node, costs []float64) (assignment []bool, cost float64, ok bool) {
	if len(costs) != m.numVars {
		panic("boolfunc: cost vector length mismatch")
	}
	type res struct {
		cost float64
		ok   bool
		high bool // branch taken at this node
	}
	memo := map[int]res{}
	var best func(n *Node) res
	best = func(n *Node) res {
		if n == m.zero {
			return res{ok: false}
		}
		if n == m.one {
			return res{cost: 0, ok: true}
		}
		if r, ok := memo[n.id]; ok {
			return r
		}
		lo := best(n.Low)
		hi := best(n.High)
		r := res{ok: lo.ok || hi.ok}
		switch {
		case lo.ok && (!hi.ok || lo.cost <= hi.cost+costs[n.Var]):
			r.cost = lo.cost
			r.high = false
		case hi.ok:
			r.cost = hi.cost + costs[n.Var]
			r.high = true
		}
		memo[n.id] = r
		return r
	}
	r := best(n)
	if !r.ok {
		return nil, 0, false
	}
	// Reconstruct the assignment along the recorded choices.
	out := make([]bool, m.numVars)
	for !n.IsTerminal() {
		c := memo[n.id]
		if n == m.one || n == m.zero {
			break
		}
		if c.high {
			out[n.Var] = true
			n = n.High
		} else {
			n = n.Low
		}
	}
	return out, r.cost, true
}

// DOT renders the BDD rooted at n in Graphviz format: solid edges for
// the high (true) branch, dashed for the low branch, boxes for the
// terminals. Variable labels come from names (index by variable; nil
// falls back to x<i>).
func (m *Manager) DOT(n *Node, names []string) string {
	var b []byte
	b = append(b, "digraph bdd {\n  rankdir=TB;\n"...)
	b = append(b, "  \"T\" [shape=box,label=\"1\"];\n  \"F\" [shape=box,label=\"0\"];\n"...)
	seen := map[int]bool{}
	var walk func(n *Node)
	label := func(n *Node) string {
		switch n {
		case m.one:
			return "T"
		case m.zero:
			return "F"
		}
		return fmt.Sprintf("n%d", n.id)
	}
	walk = func(n *Node) {
		if n.IsTerminal() || seen[n.id] {
			return
		}
		seen[n.id] = true
		name := fmt.Sprintf("x%d", n.Var)
		if names != nil && n.Var < len(names) {
			name = names[n.Var]
		}
		b = append(b, fmt.Sprintf("  %q [label=%q];\n", label(n), name)...)
		b = append(b, fmt.Sprintf("  %q -> %q [style=dashed];\n", label(n), label(n.Low))...)
		b = append(b, fmt.Sprintf("  %q -> %q;\n", label(n), label(n.High))...)
		walk(n.Low)
		walk(n.High)
	}
	walk(n)
	b = append(b, "}\n"...)
	return string(b)
}
