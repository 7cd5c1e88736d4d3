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

// Property: on random functions the cost-ordered enumeration emits
// exactly the brute-force satisfying set, in exactly the reference
// order, visiting no more nodes than the full subset scan would.
func TestPropCostEnumMatchesBruteForce(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nVars := 2 + rng.Intn(15) // up to 16 variables
		m := NewManager(nVars)
		n, eval := randomExpr(m, rng, 4)
		costs := make([]float64, nVars)
		for i := range costs {
			costs[i] = float64(rng.Intn(6))
		}
		sort.Float64s(costs)

		asg := make([]bool, nVars)
		sat := func(idx []int) bool {
			for v := range asg {
				asg[v] = false
			}
			for _, v := range idx {
				asg[v] = true
			}
			return eval(asg)
		}
		wantIdx, wantCosts := refScan(nVars, costs, sat)

		e := m.NewCostEnum(n, costs)
		idxs, emCosts := enumAll(e)
		if len(idxs) != len(wantIdx) {
			return false
		}
		last := -1.0
		for i := range wantIdx {
			if !equalInts(idxs[i], wantIdx[i]) || emCosts[i] != wantCosts[i] {
				return false
			}
			if emCosts[i] < last {
				return false // cost order violated
			}
			last = emCosts[i]
		}
		// Effort bound: never worse than the exhaustive subset scan.
		return e.Visited() <= 1<<nVars
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
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
		n    *Node
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
