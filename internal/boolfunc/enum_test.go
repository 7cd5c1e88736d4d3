package boolfunc

import (
	"container/heap"
	"math/big"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// enumAll drains the enumeration, copying each assignment.
func enumAll(e *CostEnum) (idxs [][]int, costs []float64) {
	for {
		idx, cost, ok := e.Next()
		if !ok {
			return idxs, costs
		}
		idxs = append(idxs, append([]int(nil), idx...))
		costs = append(costs, cost)
	}
}

// refScan is an independent reimplementation of the unpruned subset
// scan (the extend/replace tree under the (cost, descending-lex) heap,
// as in internal/alloc): the reference stream the pruned symbolic
// enumeration must reproduce as its satisfying subsequence. It visits
// all 2^n subsets, so keep n small.
func refScan(nVars int, costs []float64, sat func(idx []int) bool) (idxs [][]int, out []float64) {
	h := &refHeap{}
	if sat(nil) {
		idxs, out = append(idxs, []int{}), append(out, 0)
	}
	if nVars > 0 {
		heap.Push(h, refNode{costs[0], []int{0}})
	}
	for h.Len() > 0 {
		cur := heap.Pop(h).(refNode)
		if m := cur.idx[len(cur.idx)-1]; m+1 < nVars {
			ext := append(append([]int(nil), cur.idx...), m+1)
			heap.Push(h, refNode{cur.cost + costs[m+1], ext})
			rep := append([]int(nil), cur.idx...)
			rep[len(rep)-1] = m + 1
			heap.Push(h, refNode{cur.cost - costs[m] + costs[m+1], rep})
		}
		if sat(cur.idx) {
			idxs, out = append(idxs, cur.idx), append(out, cur.cost)
		}
	}
	return idxs, out
}

type refNode struct {
	cost float64
	idx  []int
}

type refHeap []refNode

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	return refBefore(a.idx, b.idx)
}

// refBefore is the reference equal-cost tie-break on ascending index
// sequences: descending lexicographic, the longer of a prefix pair
// first.
func refBefore(a, b []int) bool {
	for k := 0; k < len(a) && k < len(b); k++ {
		if a[k] != b[k] {
			return a[k] > b[k]
		}
	}
	return len(a) > len(b)
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refNode)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func TestCostEnumFalse(t *testing.T) {
	m := NewManager(4)
	e := m.NewCostEnum(m.False(), []float64{1, 2, 3, 4})
	idxs, _ := enumAll(e)
	if len(idxs) != 0 {
		t.Fatalf("False emitted %d assignments", len(idxs))
	}
	if e.Visited() != 1 {
		t.Errorf("False visited %d nodes, want 1 (the all-false check)", e.Visited())
	}
}

func TestCostEnumTrueDistinctCosts(t *testing.T) {
	m := NewManager(3)
	// Power-of-two costs make every subset cost distinct, so the order
	// is the plain numeric one.
	e := m.NewCostEnum(m.True(), []float64{1, 2, 4})
	idxs, costs := enumAll(e)
	want := [][]int{{}, {0}, {1}, {0, 1}, {2}, {0, 2}, {1, 2}, {0, 1, 2}}
	if len(idxs) != len(want) {
		t.Fatalf("emitted %d assignments, want %d", len(idxs), len(want))
	}
	for i := range want {
		if !equalInts(idxs[i], want[i]) || costs[i] != float64(i) {
			t.Errorf("emission %d = %v ($%v), want %v ($%d)", i, idxs[i], costs[i], want[i], i)
		}
	}
	// True admits no pruning: the scan visits all 2^3 subsets.
	if e.Visited() != 8 {
		t.Errorf("visited %d, want 8", e.Visited())
	}
}

// TestCostEnumTieOrder pins the deterministic equal-cost tie-break:
// with all-equal costs the stream is exactly the subset heap's pop
// order (cost, then descending lexicographic index sequence).
func TestCostEnumTieOrder(t *testing.T) {
	want := [][]int{{}, {0}, {1}, {2}, {1, 2}, {0, 1}, {0, 2}, {0, 1, 2}}
	for run := 0; run < 2; run++ {
		m := NewManager(3)
		e := m.NewCostEnum(m.True(), []float64{1, 1, 1})
		idxs, costs := enumAll(e)
		if len(idxs) != len(want) {
			t.Fatalf("run %d: emitted %d assignments, want %d", run, len(idxs), len(want))
		}
		for i := range want {
			if !equalInts(idxs[i], want[i]) {
				t.Errorf("run %d: emission %d = %v, want %v", run, i, idxs[i], want[i])
			}
			if costs[i] != float64(len(want[i])) {
				t.Errorf("run %d: emission %d cost = %v, want %d", run, i, costs[i], len(want[i]))
			}
		}
	}
}

func TestCostEnumMaxVisits(t *testing.T) {
	m := NewManager(10)
	costs := make([]float64, 10)
	for i := range costs {
		costs[i] = 1
	}
	e := m.NewCostEnum(m.True(), costs)
	e.MaxVisits = 5
	idxs, _ := enumAll(e)
	if e.Visited() > 5 {
		t.Errorf("visited %d nodes past the budget of 5", e.Visited())
	}
	if len(idxs) >= 1<<10 {
		t.Error("budgeted enumeration did not stop early")
	}
}

// TestCostEnumResume checks the cursor contract: a fresh enumeration
// that discards the first k results continues bit-identically.
func TestCostEnumResume(t *testing.T) {
	m := NewManager(6)
	f := m.Apply(Or, m.Apply(And, m.Var(0), m.Var(3)), m.Apply(Xor, m.Var(2), m.Var(5)))
	costs := []float64{1, 1, 2, 3, 3, 5}
	full, fullCosts := enumAll(m.NewCostEnum(f, costs))
	const skip = 5
	if len(full) <= skip {
		t.Fatalf("need more than %d models, got %d", skip, len(full))
	}
	e := m.NewCostEnum(f, costs)
	for i := 0; i < skip; i++ {
		if _, _, ok := e.Next(); !ok {
			t.Fatalf("replay ended early at %d", i)
		}
	}
	if e.Emitted() != skip {
		t.Fatalf("cursor = %d, want %d", e.Emitted(), skip)
	}
	rest, restCosts := enumAll(e)
	if len(rest) != len(full)-skip {
		t.Fatalf("resumed stream has %d models, want %d", len(rest), len(full)-skip)
	}
	for i := range rest {
		if !equalInts(rest[i], full[skip+i]) || restCosts[i] != fullCosts[skip+i] {
			t.Errorf("resumed emission %d = %v ($%v), want %v ($%v)",
				i, rest[i], restCosts[i], full[skip+i], fullCosts[skip+i])
		}
	}
}

// randomCase draws from seed a random function of 2 to 16 variables,
// its brute-force evaluator and its sorted cost vector, one cost per
// variable from draw.
func randomCase(seed int64, draw func(*rand.Rand) float64) (m *Manager, f Node, costs []float64, eval func([]bool) bool) {
	rng := rand.New(rand.NewSource(seed))
	nVars := 2 + rng.Intn(15) // up to 16 variables
	m = NewManager(nVars)
	f, eval = randomExpr(m, rng, 4)
	costs = make([]float64, nVars)
	for i := range costs {
		costs[i] = draw(rng)
	}
	sort.Float64s(costs)
	return m, f, costs, eval
}

// satOf turns an evaluator on assignments into one on index sets.
func satOf(nVars int, eval func([]bool) bool) func(idx []int) bool {
	asg := make([]bool, nVars)
	return func(idx []int) bool {
		for v := range asg {
			asg[v] = false
		}
		for _, v := range idx {
			asg[v] = true
		}
		return eval(asg)
	}
}

// matchesRefScan walks f under costs to exhaustion and reports whether
// it emits exactly the brute-force satisfying set, in exactly refScan's
// order with bit-identical, nondecreasing costs, visiting no more nodes
// than the full subset scan would.
func matchesRefScan(m *Manager, f Node, costs []float64, eval func([]bool) bool) (*CostEnum, bool) {
	nVars := m.NumVars()
	wantIdx, wantCosts := refScan(nVars, costs, satOf(nVars, eval))
	e := m.NewCostEnum(f, costs)
	idxs, emCosts := enumAll(e)
	if len(idxs) != len(wantIdx) {
		return e, false
	}
	last := -1.0
	for i := range wantIdx {
		if !equalInts(idxs[i], wantIdx[i]) || emCosts[i] != wantCosts[i] {
			return e, false
		}
		if emCosts[i] < last {
			return e, false // cost order violated
		}
		last = emCosts[i]
	}
	// Effort bound: never worse than the exhaustive subset scan.
	return e, e.Visited() <= 1<<nVars
}

// Property: on random functions with integer costs the cost-ordered
// enumeration emits exactly the brute-force satisfying set, in exactly
// the reference order. The walk keyed by cheapest completion visits no
// more nodes than the walk keyed by each node's own cost
// (refPrunedWalk), and under the same MaxVisits budget emits a prefix
// of the stream at least as long as that walk's.
func TestPropCostEnumMatchesBruteForce(t *testing.T) {
	prop := func(seed int64, cut uint16) bool {
		m, f, costs, eval := randomCase(seed, func(rng *rand.Rand) float64 { return float64(rng.Intn(6)) })
		e, ok := matchesRefScan(m, f, costs, eval)
		if !ok {
			return false
		}
		nVars := m.NumVars()
		all := make([]int, nVars)
		for v := range all {
			all[v] = v
		}
		sat := bruteForceSat(nVars, all, eval)
		want, refVisits := refPrunedWalk(nVars, costs, sat, 0)
		if e.Visited() > refVisits {
			t.Logf("seed %d: visited %d nodes, reference walk %d", seed, e.Visited(), refVisits)
			return false
		}
		budget := 1 + int(cut)%refVisits
		b := m.NewCostEnum(f, costs)
		b.MaxVisits = budget
		got, _ := enumAll(b)
		refPrefix, _ := refPrunedWalk(nVars, costs, sat, budget)
		if len(got) < len(refPrefix) || len(got) > len(want) {
			t.Logf("seed %d MaxVisits=%d: emitted %d models, reference walk %d of %d", seed, budget, len(got), len(refPrefix), len(want))
			return false
		}
		for i := range got {
			if !equalInts(got[i], want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: with fractional costs, whose subset sums round, the stream
// is still refScan's. The completion key compares sums for equality, so
// the walk must fall back to keying nodes by their own cost here.
func TestPropCostEnumFractionalCosts(t *testing.T) {
	prop := func(seed int64) bool {
		m, f, costs, eval := randomCase(seed, func(rng *rand.Rand) float64 { return float64(rng.Intn(30)) / 10 })
		_, ok := matchesRefScan(m, f, costs, eval)
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// FuzzCostEnumStream checks whole streams against the unpruned scan:
// seed draws a random function over one variable per cost byte (at most
// 12), and each byte is a cost of byte%16 units, or of tenths of a unit
// when frac is set.
func FuzzCostEnumStream(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 1, 2, 3, 5}, false)
	f.Add(int64(2), []byte{1, 1, 1, 1, 1, 1, 1, 1}, false)
	f.Add(int64(6), []byte{1, 2, 3, 4, 5, 6, 7, 8}, true)
	f.Add(int64(1), []byte{0, 0, 3, 3, 3, 9, 9, 12, 15, 15}, true)
	f.Fuzz(func(t *testing.T, seed int64, cb []byte, frac bool) {
		if len(cb) == 0 {
			return
		}
		cb = cb[:min(len(cb), 12)]
		costs := make([]float64, len(cb))
		for i, c := range cb {
			costs[i] = float64(c % 16)
			if frac {
				costs[i] /= 10
			}
		}
		sort.Float64s(costs)
		m := NewManager(len(costs))
		fn, eval := randomExpr(m, rand.New(rand.NewSource(seed)), 4)
		if _, ok := matchesRefScan(m, fn, costs, eval); !ok {
			t.Fatalf("costs %v: stream departs from the unpruned scan", costs)
		}
	})
}

func TestCostEnumRejectsBadCosts(t *testing.T) {
	m := NewManager(3)
	for name, costs := range map[string][]float64{
		"length":     {1, 2},
		"negative":   {-1, 0, 1},
		"decreasing": {3, 2, 4},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s cost vector should panic", name)
				}
			}()
			m.NewCostEnum(m.True(), costs)
		}()
	}
}

func TestSatCountBig(t *testing.T) {
	m := NewManager(3)
	x, y := m.Var(0), m.Var(1)
	for i, c := range []struct {
		n    Node
		want int64
	}{
		{m.True(), 8}, {m.False(), 0}, {x, 4},
		{m.Apply(And, x, y), 2}, {m.Apply(Or, x, y), 6},
	} {
		if got := m.SatCountBig(c.n); got.Cmp(big.NewInt(c.want)) != 0 {
			t.Errorf("case %d: SatCountBig = %v, want %d", i, got, c.want)
		}
	}

	// Beyond float64 exactness: 2^100 - 1 assignments (all but the
	// all-false one of x0 ∨ … ∨ x99) is not representable as float64,
	// but the big count is exact.
	big100 := NewManager(100)
	any := big100.False()
	for v := 0; v < 100; v++ {
		any = big100.Apply(Or, any, big100.Var(v))
	}
	want := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 100), big.NewInt(1))
	if got := big100.SatCountBig(any); got.Cmp(want) != 0 {
		t.Errorf("SatCountBig = %v, want 2^100-1", got)
	}
}

// Property: SatCountBig agrees with the float64 count in its exact
// range.
func TestPropSatCountBigMatchesFloat(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewManager(2 + rng.Intn(5))
		n, _ := randomExpr(m, rng, 4)
		bigCount := m.SatCountBig(n)
		f, _ := new(big.Float).SetInt(bigCount).Float64()
		return f == m.SatCount(n)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
