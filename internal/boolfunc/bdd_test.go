package boolfunc

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConstantsAndVars(t *testing.T) {
	m := NewManager(3)
	if m.Eval(m.True(), []bool{false, false, false}) != true {
		t.Error("True misbehaves")
	}
	if m.Eval(m.False(), []bool{true, true, true}) != false {
		t.Error("False misbehaves")
	}
	x := m.Var(1)
	if !m.Eval(x, []bool{false, true, false}) || m.Eval(x, []bool{true, false, true}) {
		t.Error("Var(1) misbehaves")
	}
	nx := m.NotVar(1)
	if m.Eval(nx, []bool{false, true, false}) || !m.Eval(nx, []bool{true, false, true}) {
		t.Error("NotVar(1) misbehaves")
	}
	if m.NumVars() != 3 {
		t.Error("NumVars")
	}
	if m.Level(x) != 1 || m.Low(x) != m.False() || m.High(x) != m.True() {
		t.Errorf("Var(1) = (%d, %d, %d), want (1, false, true)", m.Level(x), m.Low(x), m.High(x))
	}
	for _, c := range []Node{m.False(), m.True()} {
		if m.Level(c) != 3 || m.Low(c) != c || m.High(c) != c {
			t.Errorf("terminal %d = (%d, %d, %d), want level 3 branching to itself", c, m.Level(c), m.Low(c), m.High(c))
		}
	}
}

func TestCanonicity(t *testing.T) {
	m := NewManager(2)
	x, y := m.Var(0), m.Var(1)
	// De Morgan: x ∨ y == ¬(¬x ∧ ¬y), as node equality.
	a := m.Apply(Or, x, y)
	b := m.Not(m.Apply(And, m.Not(x), m.Not(y)))
	if a != b {
		t.Error("equivalent functions are not the same node")
	}
	// x ⊕ x == false
	if m.Apply(Xor, x, x) != m.False() {
		t.Error("x xor x != false")
	}
	// x ∧ ¬x == false, x ∨ ¬x == true
	if m.Apply(And, x, m.Not(x)) != m.False() {
		t.Error("x and not x")
	}
	if m.Apply(Or, x, m.Not(x)) != m.True() {
		t.Error("x or not x")
	}
	if m.Apply(Diff, x, x) != m.False() {
		t.Error("x diff x")
	}
}

func TestSatCountSimple(t *testing.T) {
	m := NewManager(3)
	x, y := m.Var(0), m.Var(1)
	cases := []struct {
		n    Node
		want float64
	}{
		{m.True(), 8},
		{m.False(), 0},
		{x, 4},
		{m.Apply(And, x, y), 2},
		{m.Apply(Or, x, y), 6},
		{m.Apply(Xor, x, y), 4},
	}
	for i, c := range cases {
		if got := m.SatCount(c.n); got != c.want {
			t.Errorf("case %d: SatCount = %v, want %v", i, got, c.want)
		}
	}
}

func TestRestrict(t *testing.T) {
	m := NewManager(2)
	x, y := m.Var(0), m.Var(1)
	f := m.Apply(And, x, y)
	if m.Restrict(f, 0, true) != y {
		t.Error("(x∧y)|x=1 should be y")
	}
	if m.Restrict(f, 0, false) != m.False() {
		t.Error("(x∧y)|x=0 should be false")
	}
	if m.Restrict(f, 1, true) != x {
		t.Error("(x∧y)|y=1 should be x")
	}
}

func TestAnySat(t *testing.T) {
	m := NewManager(3)
	f := m.AndAll(m.Var(0), m.NotVar(1), m.Var(2))
	sat := m.AnySat(f)
	if sat == nil || !m.Eval(f, sat) {
		t.Fatalf("AnySat = %v", sat)
	}
	if !sat[0] || sat[1] || !sat[2] {
		t.Errorf("AnySat = %v, want [true false true]", sat)
	}
	if m.AnySat(m.False()) != nil {
		t.Error("AnySat(false) should be nil")
	}
}

func TestMinCostSat(t *testing.T) {
	m := NewManager(3)
	// f = (x0 ∨ x1) ∧ x2; costs 5, 3, 2.
	f := m.Apply(And, m.Apply(Or, m.Var(0), m.Var(1)), m.Var(2))
	asg, cost, ok := m.MinCostSat(f, []float64{5, 3, 2})
	if !ok {
		t.Fatal("satisfiable function reported unsat")
	}
	if cost != 5 { // x1 + x2 = 3 + 2
		t.Errorf("min cost = %v, want 5", cost)
	}
	if !m.Eval(f, asg) {
		t.Errorf("assignment %v does not satisfy f", asg)
	}
	if asg[0] || !asg[1] || !asg[2] {
		t.Errorf("assignment = %v, want [false true true]", asg)
	}
	if _, _, ok := m.MinCostSat(m.False(), []float64{1, 1, 1}); ok {
		t.Error("unsat function reported sat")
	}
	if asg, cost, ok := m.MinCostSat(m.True(), []float64{1, 1, 1}); !ok || cost != 0 || asg[0] {
		t.Errorf("MinCostSat(true) = %v %v %v", asg, cost, ok)
	}
}

// randomExpr builds a random expression tree and returns both its BDD
// and a brute-force evaluator.
func randomExpr(m *Manager, rng *rand.Rand, depth int) (Node, func([]bool) bool) {
	if depth == 0 || rng.Intn(3) == 0 {
		v := rng.Intn(m.NumVars())
		if rng.Intn(2) == 0 {
			return m.Var(v), func(a []bool) bool { return a[v] }
		}
		return m.NotVar(v), func(a []bool) bool { return !a[v] }
	}
	ln, lf := randomExpr(m, rng, depth-1)
	rn, rf := randomExpr(m, rng, depth-1)
	op := Op(rng.Intn(4))
	return m.Apply(op, ln, rn), func(a []bool) bool { return op.eval(lf(a), rf(a)) }
}

// Property: the BDD agrees with brute-force evaluation on every
// assignment, and SatCount equals the brute-force model count.
func TestPropBDDMatchesBruteForce(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nVars := 2 + rng.Intn(5)
		m := NewManager(nVars)
		n, eval := randomExpr(m, rng, 4)
		count := 0.0
		asg := make([]bool, nVars)
		for mask := 0; mask < 1<<nVars; mask++ {
			for v := 0; v < nVars; v++ {
				asg[v] = mask&(1<<v) != 0
			}
			want := eval(asg)
			if m.Eval(n, asg) != want {
				return false
			}
			if want {
				count++
			}
		}
		return m.SatCount(n) == count
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: MinCostSat matches brute-force minimization.
func TestPropMinCostMatchesBruteForce(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nVars := 2 + rng.Intn(4)
		m := NewManager(nVars)
		n, eval := randomExpr(m, rng, 3)
		costs := make([]float64, nVars)
		for i := range costs {
			costs[i] = float64(rng.Intn(10))
		}
		bestCost := -1.0
		asg := make([]bool, nVars)
		for mask := 0; mask < 1<<nVars; mask++ {
			c := 0.0
			for v := 0; v < nVars; v++ {
				asg[v] = mask&(1<<v) != 0
				if asg[v] {
					c += costs[v]
				}
			}
			if eval(asg) && (bestCost < 0 || c < bestCost) {
				bestCost = c
			}
		}
		got, gotCost, ok := m.MinCostSat(n, costs)
		if bestCost < 0 {
			return !ok
		}
		return ok && gotCost == bestCost && m.Eval(n, got)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: Restrict agrees with evaluation.
func TestPropRestrict(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nVars := 2 + rng.Intn(4)
		m := NewManager(nVars)
		n, _ := randomExpr(m, rng, 3)
		v := rng.Intn(nVars)
		val := rng.Intn(2) == 0
		r := m.Restrict(n, v, val)
		asg := make([]bool, nVars)
		for mask := 0; mask < 1<<nVars; mask++ {
			for k := 0; k < nVars; k++ {
				asg[k] = mask&(1<<k) != 0
			}
			asg[v] = val
			if m.Eval(n, asg) != m.Eval(r, asg) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestVarOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Var out of range should panic")
		}
	}()
	NewManager(2).Var(5)
}

func TestSizeGrows(t *testing.T) {
	m := NewManager(8)
	if m.Size() != 0 {
		t.Error("fresh manager should have no internal nodes")
	}
	f := m.True()
	for v := 0; v < 8; v++ {
		f = m.Apply(And, f, m.Var(v))
	}
	if m.Size() < 8 {
		t.Errorf("Size = %d, want >= 8", m.Size())
	}
	if m.SatCount(f) != 1 {
		t.Error("conjunction of all vars has one model")
	}
}

func BenchmarkApplyChain(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := NewManager(16)
		f := m.False()
		for v := 0; v < 16; v += 2 {
			f = m.Apply(Or, f, m.Apply(And, m.Var(v), m.Var(v+1)))
		}
		if m.SatCount(f) == 0 {
			b.Fatal("unexpected unsat")
		}
	}
}

func TestDOT(t *testing.T) {
	m := NewManager(2)
	f := m.Apply(And, m.Var(0), m.Var(1))
	out := m.DOT(f, []string{"uP", "A"})
	for _, frag := range []string{"digraph bdd", `label="uP"`, `label="A"`, "style=dashed", `"T" [shape=box`} {
		if !containsSub(out, frag) {
			t.Errorf("DOT lacks %q:\n%s", frag, out)
		}
	}
	if out != m.DOT(f, []string{"uP", "A"}) {
		t.Error("DOT not deterministic")
	}
	// Fallback names.
	if !containsSub(m.DOT(f, nil), `label="x0"`) {
		t.Error("fallback variable names missing")
	}
}

func containsSub(h, n string) bool {
	for i := 0; i+len(n) <= len(h); i++ {
		if h[i:i+len(n)] == n {
			return true
		}
	}
	return false
}

// TestManagerAllocsLogarithmic builds a function of thousands of nodes
// and requires the build to allocate a small constant number of times
// rather than once per node: the node, unique and computed tables grow
// only by doubling. The pairs are joined from the last variable up, so
// each disjunction adds two nodes and the build stays linear.
func TestManagerAllocsLogarithmic(t *testing.T) {
	const n = 2000
	size := 0
	allocs := testing.AllocsPerRun(3, func() {
		m := NewManager(n)
		f := m.False()
		for v := n - 2; v >= 0; v -= 2 {
			f = m.Apply(Or, m.Apply(And, m.Var(v), m.Var(v+1)), f)
		}
		size = m.Size()
	})
	if size < 2000 {
		t.Fatalf("build created %d nodes, want at least 2000", size)
	}
	if allocs > 64 {
		t.Errorf("build of %d nodes allocated %v times, want at most 64", size, allocs)
	}
}

// singleSlot cuts m's computed table to one slot for good, so nearly
// every Apply and Restrict result is evicted before it is reused.
func singleSlot(m *Manager) *Manager {
	m.cacheMax = 1
	m.cache = m.cache[:1]
	return m
}

// truthTable holds a function of at most 8 variables by assignment:
// bit v of the index is variable v.
type truthTable [256]bool

// exprBytes encodes the expression randomExpr draws from rng over
// nVars variables, as FuzzBDDMatchesTruthTable decodes it: a
// variable-count byte, then postfix instructions.
func exprBytes(rng *rand.Rand, nVars, depth int) []byte {
	var enc func(depth int) []byte
	enc = func(depth int) []byte {
		if depth == 0 || rng.Intn(3) == 0 {
			v := byte(rng.Intn(nVars))
			return []byte{byte(rng.Intn(2)) | v<<4}
		}
		out := enc(depth - 1)
		out = append(out, enc(depth-1)...)
		return append(out, 2+byte(rng.Intn(4)))
	}
	return append([]byte{byte(nVars - 1)}, enc(depth)...)
}

// FuzzBDDMatchesTruthTable decodes an expression over at most 8
// variables and builds it in a manager and in one whose computed table
// holds a single slot. Both must agree with the expression's truth
// table on every assignment and in model count, equal the node built
// from the table's Shannon expansion, and create the same nodes: a
// lost computed-table entry costs recomputation, never a result.
//
// The first byte gives the variable count (1 + b%8); each further byte
// is a postfix instruction on its low 3 bits, v = (b>>4)%n: 0 pushes
// Var(v), 1 NotVar(v), 2–5 pop two and push Apply(And|Or|Xor|Diff), 6
// pops one and pushes Not, 7 pops one and pushes Restrict(v, b>>3&1).
// Instructions that find too few operands are skipped.
func FuzzBDDMatchesTruthTable(f *testing.F) {
	// TestPropBDDMatchesBruteForce's draws.
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f.Add(exprBytes(rng, 2+rng.Intn(5), 4))
	}
	f.Add([]byte{7, 0x70, 0x61, 3, 6, 0x17, 0x05, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%8
		ms := [2]*Manager{NewManager(n), singleSlot(NewManager(n))}
		type entry struct {
			nodes [2]Node
			tt    truthTable
		}
		var stack []entry
		for _, b := range data[1:min(len(data), 65)] {
			v := int(b>>4) % n
			var x entry
			switch op := b & 7; {
			case op <= 1:
				for a := range 1 << n {
					x.tt[a] = a>>v&1 == 1 != (op == 1)
				}
				for i, m := range ms {
					if op == 0 {
						x.nodes[i] = m.Var(v)
					} else {
						x.nodes[i] = m.NotVar(v)
					}
				}
			case op <= 5:
				if len(stack) < 2 {
					continue
				}
				l, r := stack[len(stack)-2], stack[len(stack)-1]
				stack = stack[:len(stack)-2]
				o := Op(op - 2)
				for a := range 1 << n {
					x.tt[a] = o.eval(l.tt[a], r.tt[a])
				}
				for i, m := range ms {
					x.nodes[i] = m.Apply(o, l.nodes[i], r.nodes[i])
				}
			default:
				if len(stack) < 1 {
					continue
				}
				y := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				val := b>>3&1 == 1
				for a := range 1 << n {
					if op == 6 {
						x.tt[a] = !y.tt[a]
					} else if val {
						x.tt[a] = y.tt[a|1<<v]
					} else {
						x.tt[a] = y.tt[a&^(1<<v)]
					}
				}
				for i, m := range ms {
					if op == 6 {
						x.nodes[i] = m.Not(y.nodes[i])
					} else {
						x.nodes[i] = m.Restrict(y.nodes[i], v, val)
					}
				}
			}
			stack = append(stack, x)
		}
		if len(stack) == 0 {
			return
		}
		top := stack[len(stack)-1]
		want := 0
		asg := make([]bool, n)
		for a := range 1 << n {
			for v := range asg {
				asg[v] = a>>v&1 == 1
			}
			for i, m := range ms {
				if m.Eval(top.nodes[i], asg) != top.tt[a] {
					t.Fatalf("manager %d: Eval(%v) = %v, truth table says %v", i, asg, !top.tt[a], top.tt[a])
				}
			}
			if top.tt[a] {
				want++
			}
		}
		if ms[0].Size() != ms[1].Size() {
			t.Fatalf("managers created %d and %d nodes, want equal", ms[0].Size(), ms[1].Size())
		}
		for i, m := range ms {
			if got := m.SatCountBig(top.nodes[i]); got.Cmp(big.NewInt(int64(want))) != 0 {
				t.Fatalf("manager %d: SatCountBig = %v, brute force %d", i, got, want)
			}
			if sh := shannon(m, &top.tt, 0, 0); sh != top.nodes[i] {
				t.Fatalf("manager %d: node %d, Shannon expansion builds %d", i, top.nodes[i], sh)
			}
		}
	})
}

// shannon builds, with mk alone, the function tt restricted by the
// assignment prefix of the variables below v.
func shannon(m *Manager, tt *truthTable, v, prefix int) Node {
	if v == m.NumVars() {
		return constant(tt[prefix])
	}
	return m.mk(int32(v), shannon(m, tt, v+1, prefix), shannon(m, tt, v+1, prefix|1<<v))
}

// TestNewManagerSized: the node-capacity hint raises the starting
// capacity to the next power of two and never lowers it below what the
// variable count needs.
func TestNewManagerSized(t *testing.T) {
	for _, tc := range []struct{ vars, nodes, want int }{
		{22, 0, 64},
		{22, 10, 64},
		{22, 352, 512},
		{14, 224, 256},
		{2, 0, 16},
		{2, 16, 16},
		{2, 17, 32},
	} {
		m := NewManagerSized(tc.vars, tc.nodes)
		if c := cap(m.level); c != tc.want || cap(m.low) != c || cap(m.high) != c || len(m.unique) != 2*c || len(m.cache) != c/2 {
			t.Errorf("NewManagerSized(%d, %d): capacity %d (unique %d, cache %d), want %d",
				tc.vars, tc.nodes, c, len(m.unique), len(m.cache), tc.want)
		}
	}
	if a, b := NewManager(22), NewManagerSized(22, 0); cap(a.level) != cap(b.level) {
		t.Errorf("NewManager capacity %d, NewManagerSized(_, 0) %d", cap(a.level), cap(b.level))
	}
}
