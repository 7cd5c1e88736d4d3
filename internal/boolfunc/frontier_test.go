package boolfunc

import (
	"container/heap"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// entryOf stores the nonempty ascending index set idx in a fresh row
// of e's arena and returns its frontier entry keyed by its own cost
// under e's costs, as a node whose cost is its key.
func entryOf(e *CostEnum, idx []int) enumEntry {
	r := e.newRow()
	row := e.row(r)
	clear(row)
	cost := 0.0
	for _, k := range idx {
		row[k>>6] |= 1 << (k & 63)
		cost += e.costs[k]
	}
	return enumEntry{key: cost, row: r, last: uint32(idx[len(idx)-1]) | atKey}
}

// randomSet draws a nonempty ascending subset of [0, n) of a random
// density.
func randomSet(rng *rand.Rand, n int) []int {
	p := rng.Float64()
	var s []int
	for k := 0; k < n; k++ {
		if rng.Float64() < p {
			s = append(s, k)
		}
	}
	if len(s) == 0 {
		s = append(s, rng.Intn(n))
	}
	return s
}

// flipSet returns s with the membership of k toggled, ascending.
func flipSet(s []int, k int) []int {
	out := make([]int, 0, len(s)+1)
	found := false
	for _, v := range s {
		if v == k {
			found = true
			continue
		}
		out = append(out, v)
	}
	if !found {
		out = append(out, k)
		sort.Ints(out)
	}
	return out
}

// comparatorPair draws two nonempty index sets over [0, n) of the given
// kind: 0 independent, 1 a prefix pair, 2 equal size (so equal cost
// under unit costs), 3 differing only from bit 64 on. ok=false when the
// kind does not apply or the draw gave equal sets.
func comparatorPair(rng *rand.Rand, n, kind int) (a, b []int, ok bool) {
	a = randomSet(rng, n)
	switch kind {
	case 0:
		b = randomSet(rng, n)
	case 1:
		if len(a) < 2 {
			return nil, nil, false
		}
		b = a[:1+rng.Intn(len(a)-1)]
	case 2:
		if len(a) == n {
			return nil, nil, false
		}
		out := rng.Intn(n)
		for contains(a, out) {
			out = rng.Intn(n)
		}
		b = flipSet(flipSet(a, a[rng.Intn(len(a))]), out)
	case 3:
		if n <= 64 {
			return nil, nil, false
		}
		b = a
		for flips := 1 + rng.Intn(3); flips > 0; flips-- {
			b = flipSet(b, 64+rng.Intn(n-64))
		}
	}
	if len(b) == 0 || equalInts(a, b) {
		return nil, nil, false
	}
	if rng.Intn(2) == 0 {
		a, b = b, a
	}
	return a, b, true
}

func contains(s []int, k int) bool {
	for _, v := range s {
		if v == k {
			return true
		}
	}
	return false
}

// Property: the frontier comparator — cost, then the bitmask tie test —
// orders every pair of distinct index sets exactly as the reference
// slice comparator does, and is antisymmetric.
func TestPropFrontierLessMatchesReference(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// One word, both sides of each word boundary, three words.
		for _, n := range []int{1, 63, 64, 65, 128, 130} {
			m := NewManager(n)
			costs := make([]float64, n)
			for i := range costs {
				costs[i] = 1
			}
			e := m.NewCostEnum(m.True(), costs)
			for kind := 0; kind < 4; kind++ {
				a, b, ok := comparatorPair(rng, n, kind)
				if !ok {
					continue
				}
				ea, eb := entryOf(e, a), entryOf(e, b)
				want := ea.key < eb.key || ea.key == eb.key && refBefore(a, b)
				if e.less(&ea, &eb) != want || e.less(&eb, &ea) == want {
					t.Logf("n=%d kind=%d: less(%v, %v) = %v, want %v", n, kind, a, b, e.less(&ea, &eb), want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzCostEnumOrder checks the bitmask tie test against the reference
// comparator on fuzzed index sets: each byte of a and b is an element
// modulo a width of 1 to 192 variables.
func FuzzCostEnumOrder(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{1, 2}, uint8(4))
	f.Add([]byte{63, 64}, []byte{63, 65}, uint8(130))
	f.Add([]byte{0, 127}, []byte{0, 128}, uint8(130))
	f.Add([]byte{5, 70, 129}, []byte{5, 70, 128}, uint8(130))
	f.Fuzz(func(t *testing.T, ab, bb []byte, width uint8) {
		n := 1 + int(width)%192
		a, b := bytesToSet(ab, n), bytesToSet(bb, n)
		if len(a) == 0 || len(b) == 0 || equalInts(a, b) {
			return
		}
		words := (n + 63) / 64
		ra, rb := make([]uint64, words), make([]uint64, words)
		for _, k := range a {
			ra[k>>6] |= 1 << (k & 63)
		}
		for _, k := range b {
			rb[k>>6] |= 1 << (k & 63)
		}
		la, lb := int32(a[len(a)-1]), int32(b[len(b)-1])
		if got, want := tieBefore(ra, rb, la, lb), refBefore(a, b); got != want {
			t.Fatalf("n=%d: tieBefore(%v, %v) = %v, want %v", n, a, b, got, want)
		}
		if tieBefore(rb, ra, lb, la) == tieBefore(ra, rb, la, lb) {
			t.Fatalf("n=%d: tieBefore is not antisymmetric on %v, %v", n, a, b)
		}
	})
}

// bytesToSet reads each byte as an element modulo n, ascending and
// deduplicated.
func bytesToSet(bs []byte, n int) []int {
	seen := make([]bool, n)
	for _, c := range bs {
		seen[int(c)%n] = true
	}
	var s []int
	for k, in := range seen {
		if in {
			s = append(s, k)
		}
	}
	return s
}

// TestCostEnumMultiWordStream walks functions of 64 to 130 variables,
// where index rows span up to three words. Every variable is forced
// false except a dozen free ones straddling bits 63/64 and 127/128,
// with tied costs, under a random constraint. The stream and the visit
// count must match a reference walk over the brute-force satisfying
// set with the slice comparator, and a MaxVisits walk must emit a
// prefix of that stream.
func TestCostEnumMultiWordStream(t *testing.T) {
	candidates := []int{0, 1, 40, 61, 62, 63, 64, 65, 66, 126, 127, 128, 129}
	for _, n := range []int{64, 65, 70, 130} {
		var free []int
		for _, v := range candidates {
			if v < n {
				free = append(free, v)
			}
		}
		if len(free) > 12 {
			free = free[len(free)-12:]
		}
		m := NewManager(n)
		// Costs tie in plateaus of 48 variables: 48..95 spans the first
		// word boundary, 96..143 the second.
		costs := make([]float64, n)
		for i := range costs {
			costs[i] = 1 + float64(i/48)
		}
		rng := rand.New(rand.NewSource(int64(n)))
		g, eval := freeExpr(m, rng, free, 4)
		f := g
		isFree := make([]bool, n)
		for _, v := range free {
			isFree[v] = true
		}
		for v := 0; v < n; v++ {
			if !isFree[v] {
				f = m.Apply(And, f, m.NotVar(v))
			}
		}

		sat := bruteForceSat(n, free, eval)
		want, wantVisits := refPrunedWalk(n, costs, sat, 0)
		if len(want) != len(sat) || len(want) < 10 {
			t.Fatalf("n=%d: reference walk emitted %d of %d models", n, len(want), len(sat))
		}
		full := m.NewCostEnum(f, costs)
		got, gotCosts := enumAll(full)
		sameStream(t, n, "full", got, gotCosts, want, costs)
		if full.Visited() != wantVisits {
			t.Errorf("n=%d: visited %d nodes, reference walk %d", n, full.Visited(), wantVisits)
		}

		for _, frac := range []int{4, 2} {
			e := m.NewCostEnum(f, costs)
			e.MaxVisits = full.Visited() / frac
			prefix, prefixCosts := enumAll(e)
			if e.Visited() != e.MaxVisits || !e.BudgetCut() || len(prefix) >= len(want) {
				t.Errorf("n=%d MaxVisits=%d: visited %d, cut %v, %d of %d models",
					n, e.MaxVisits, e.Visited(), e.BudgetCut(), len(prefix), len(want))
			}
			sameStream(t, n, "prefix", prefix, prefixCosts, want[:len(prefix)], costs)
		}

	}
}

// freeExpr is randomExpr over the given variables only.
func freeExpr(m *Manager, rng *rand.Rand, vars []int, depth int) (*Node, func([]bool) bool) {
	if depth == 0 || rng.Intn(3) == 0 {
		v := vars[rng.Intn(len(vars))]
		if rng.Intn(2) == 0 {
			return m.Var(v), func(a []bool) bool { return a[v] }
		}
		return m.NotVar(v), func(a []bool) bool { return !a[v] }
	}
	ln, lf := freeExpr(m, rng, vars, depth-1)
	rn, rf := freeExpr(m, rng, vars, depth-1)
	op := Op(rng.Intn(4))
	return m.Apply(op, ln, rn), func(a []bool) bool { return op.eval(lf(a), rf(a)) }
}

// bruteForceSat lists the subsets of free, as ascending index
// sequences, whose assignment over n variables satisfies eval.
func bruteForceSat(n int, free []int, eval func([]bool) bool) [][]int {
	asg := make([]bool, n)
	var out [][]int
	for mask := 0; mask < 1<<len(free); mask++ {
		idx := []int{}
		for i, v := range free {
			asg[v] = mask&(1<<i) != 0
			if asg[v] {
				idx = append(idx, v)
			}
		}
		if eval(asg) {
			out = append(out, idx)
		}
	}
	return out
}

// refPrunedWalk is the reference for the symbolic walk on a known
// satisfying set: the extend/replace subset tree under refHeap, with a
// node pushed only when its subtree — the subsets that keep its
// elements below its last one and have an element at or above it —
// holds a satisfying set. It returns the satisfying subsequence of the
// pop order, the empty set first, and the visit count as CostEnum
// counts it. A positive maxVisits stops the walk there, as MaxVisits
// stops CostEnum.
func refPrunedWalk(n int, costs []float64, sat [][]int, maxVisits int) (stream [][]int, visits int) {
	key := func(s []int) string {
		b := make([]byte, len(s))
		for i, v := range s {
			b[i] = byte(v)
		}
		return string(b)
	}
	// next[key(P)] is the largest element that directly follows the
	// prefix P in some satisfying set.
	next := map[string]int{}
	isSat := map[string]bool{}
	for _, s := range sat {
		isSat[key(s)] = true
		for j := range s {
			if v, ok := next[key(s[:j])]; !ok || s[j] > v {
				next[key(s[:j])] = s[j]
			}
		}
	}
	live := func(c []int) bool {
		v, ok := next[key(c[:len(c)-1])]
		return ok && v >= c[len(c)-1]
	}
	visits = 1
	if isSat[""] {
		stream = append(stream, []int{})
	}
	h := &refHeap{}
	if n > 0 && live([]int{0}) {
		heap.Push(h, refNode{costs[0], []int{0}})
	}
	for h.Len() > 0 && (maxVisits <= 0 || visits < maxVisits) {
		cur := heap.Pop(h).(refNode)
		visits++
		if m := cur.idx[len(cur.idx)-1]; m+1 < n {
			ext := append(append([]int(nil), cur.idx...), m+1)
			if live(ext) {
				heap.Push(h, refNode{cur.cost + costs[m+1], ext})
			}
			rep := append([]int(nil), cur.idx...)
			rep[len(rep)-1] = m + 1
			if live(rep) {
				heap.Push(h, refNode{cur.cost - costs[m] + costs[m+1], rep})
			}
		}
		if isSat[key(cur.idx)] {
			stream = append(stream, cur.idx)
		}
	}
	return stream, visits
}

// sameStream reports where an emitted stream departs from want.
func sameStream(t *testing.T, n int, label string, got [][]int, gotCosts []float64, want [][]int, costs []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("n=%d %s: emitted %d models, want %d", n, label, len(got), len(want))
		return
	}
	for i := range want {
		c := 0.0
		for _, v := range want[i] {
			c += costs[v]
		}
		if !equalInts(got[i], want[i]) || gotCosts[i] != c {
			t.Errorf("n=%d %s: emission %d = %v ($%v), want %v ($%v)", n, label, i, got[i], gotCosts[i], want[i], c)
			return
		}
	}
}

// atMost builds "at most k of the manager's variables are true".
func atMost(m *Manager, k int) *Node {
	// le[j]: at most j of the variables folded in so far are true.
	le := make([]*Node, k+1)
	for j := range le {
		le[j] = m.True()
	}
	for v := m.NumVars() - 1; v >= 0; v-- {
		x := m.Var(v)
		for j := k; j >= 0; j-- {
			taken := m.False()
			if j > 0 {
				taken = le[j-1]
			}
			le[j] = m.Apply(Or, m.Apply(And, x, taken), m.Apply(Diff, le[j], x))
		}
	}
	return le[k]
}

// TestCostEnumAllocsConstant walks a 22-variable function to
// exhaustion and requires the walk's allocations to stay a small
// constant — the frontier grows by doubling — rather than grow with
// the tens of thousands of nodes it visits.
func TestCostEnumAllocsConstant(t *testing.T) {
	const n = 22
	m := NewManager(n)
	f := atMost(m, 5)
	costs := make([]float64, n)
	for i := range costs {
		costs[i] = 1 + float64(i/4)
	}
	visited, emitted := 0, 0
	allocs := testing.AllocsPerRun(3, func() {
		e := m.NewCostEnum(f, costs)
		for {
			if _, _, ok := e.Next(); !ok {
				break
			}
		}
		visited, emitted = e.Visited(), e.Emitted()
	})
	// Σ_{j≤5} C(22, j) models.
	if emitted != 35443 || visited < emitted {
		t.Fatalf("walk emitted %d models in %d visits, want 35443", emitted, visited)
	}
	if allocs > 64 {
		t.Errorf("walk of %d visits allocated %v times, want at most 64", visited, allocs)
	}
}
