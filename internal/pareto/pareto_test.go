package pareto

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{1, 1}, []float64{2, 2}, true},
		{[]float64{1, 2}, []float64{2, 1}, false},
		{[]float64{1, 1}, []float64{1, 1}, false},
		{[]float64{1, 1}, []float64{1, 2}, true},
		{[]float64{2, 1}, []float64{1, 2}, false},
		{[]float64{1}, []float64{1, 2}, false},
	}
	for i, c := range cases {
		if got := Dominates(c.a, c.b); got != c.want {
			t.Errorf("case %d: Dominates(%v, %v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
}

func TestCostFlexObjectives(t *testing.T) {
	obj := CostFlexObjectives(100, 2)
	if obj[0] != 100 || obj[1] != 0.5 {
		t.Errorf("objectives = %v, want [100 0.5]", obj)
	}
	if !math.IsInf(CostFlexObjectives(100, 0)[1], 1) {
		t.Error("zero flexibility should map to +Inf")
	}
}

// TestFig4ParetoPoints mirrors the Fig. 4 situation: four Pareto-optimal
// points on a cost vs 1/flexibility trade-off curve plus dominated
// points that must be pruned.
func TestFig4ParetoPoints(t *testing.T) {
	f := &Front{}
	pts := [][2]float64{ // (cost, flex)
		{100, 2}, {120, 3}, {230, 4}, {430, 8}, // Pareto
		{150, 2}, {240, 3}, {500, 8}, // dominated
	}
	for _, p := range pts {
		f.Add(&Entry{Objectives: CostFlexObjectives(p[0], p[1]), Value: p})
	}
	if f.Size() != 4 {
		t.Fatalf("front size = %d, want 4", f.Size())
	}
	es := f.Entries()
	wantCosts := []float64{100, 120, 230, 430}
	for i, e := range es {
		if e.Objectives[0] != wantCosts[i] {
			t.Errorf("entry %d cost = %v, want %v", i, e.Objectives[0], wantCosts[i])
		}
	}
}

func TestFrontAddSemantics(t *testing.T) {
	f := &Front{}
	if !f.Add(&Entry{Objectives: []float64{2, 2}}) {
		t.Error("first add should succeed")
	}
	if f.Add(&Entry{Objectives: []float64{2, 2}}) {
		t.Error("duplicate objectives should be rejected")
	}
	if f.Add(&Entry{Objectives: []float64{3, 3}}) {
		t.Error("dominated entry should be rejected")
	}
	if !f.Add(&Entry{Objectives: []float64{1, 3}}) {
		t.Error("incomparable entry should be accepted")
	}
	if !f.Add(&Entry{Objectives: []float64{1, 1}}) {
		t.Error("dominating entry should be accepted")
	}
	if f.Size() != 1 {
		t.Errorf("front size = %d, want 1 after a fully dominating insert", f.Size())
	}
	if !f.DominatesPoint([]float64{1, 1}) || !f.DominatesPoint([]float64{5, 5}) {
		t.Error("DominatesPoint misbehaves for covered points")
	}
	if f.DominatesPoint([]float64{0.5, 2}) {
		t.Error("DominatesPoint misbehaves for uncovered point")
	}
}

func TestHypervolume2D(t *testing.T) {
	f := &Front{}
	f.Add(&Entry{Objectives: []float64{1, 3}})
	f.Add(&Entry{Objectives: []float64{2, 2}})
	f.Add(&Entry{Objectives: []float64{3, 1}})
	ref := [2]float64{4, 4}
	// Areas: (4-1)*(4-3)=3, (4-2)*(3-2)=2, (4-3)*(2-1)=1 → 6
	if got := Hypervolume2D(f, ref); got != 6 {
		t.Errorf("hypervolume = %v, want 6", got)
	}
	// Points beyond the reference contribute nothing.
	f.Add(&Entry{Objectives: []float64{0.5, 5}})
	if got := Hypervolume2D(f, ref); got != 6 {
		t.Errorf("hypervolume with out-of-ref point = %v, want 6", got)
	}
	if got := Hypervolume2D(&Front{}, ref); got != 0 {
		t.Errorf("empty front hypervolume = %v, want 0", got)
	}
}

func TestCoverage(t *testing.T) {
	a, b := &Front{}, &Front{}
	a.Add(&Entry{Objectives: []float64{1, 1}})
	b.Add(&Entry{Objectives: []float64{2, 2}})
	b.Add(&Entry{Objectives: []float64{0.5, 3}})
	if got := Coverage(a, b); got != 0.5 {
		t.Errorf("Coverage = %v, want 0.5 (only (2,2) is covered)", got)
	}
	if got := Coverage(a, &Front{}); got != 0 {
		t.Errorf("Coverage of empty = %v, want 0", got)
	}
	if got := Coverage(b, a); got != 0 {
		t.Errorf("Coverage(b,a) = %v, want 0 (nothing in b dominates (1,1))", got)
	}
	c := &Front{}
	c.Add(&Entry{Objectives: []float64{0.5, 0.5}})
	if got := Coverage(c, a); got != 1 {
		t.Errorf("Coverage(c,a) = %v, want 1", got)
	}
}

// Property: the archive never holds two entries where one dominates the
// other, and every rejected point is dominated-or-equal.
func TestPropFrontInvariant(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := &Front{}
		for k := 0; k < 60; k++ {
			obj := []float64{float64(rng.Intn(10)), float64(rng.Intn(10))}
			added := f.Add(&Entry{Objectives: obj})
			if !added && !f.DominatesPoint(obj) {
				return false
			}
		}
		es := f.Entries()
		for i := range es {
			for j := range es {
				if i != j && Dominates(es[i].Objectives, es[j].Objectives) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: hypervolume never decreases as points are added.
func TestPropHypervolumeMonotone(t *testing.T) {
	ref := [2]float64{100, 100}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := &Front{}
		prev := 0.0
		for k := 0; k < 40; k++ {
			obj := []float64{1 + 98*rng.Float64(), 1 + 98*rng.Float64()}
			f.Add(&Entry{Objectives: obj})
			hv := Hypervolume2D(f, ref)
			if hv+1e-9 < prev {
				return false
			}
			prev = hv
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: insertion order does not change the resulting front.
func TestPropOrderIndependence(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var objs [][]float64
		for k := 0; k < 30; k++ {
			objs = append(objs, []float64{float64(rng.Intn(8)), float64(rng.Intn(8))})
		}
		f1 := &Front{}
		for _, o := range objs {
			f1.Add(&Entry{Objectives: o})
		}
		rng.Shuffle(len(objs), func(i, j int) { objs[i], objs[j] = objs[j], objs[i] })
		f2 := &Front{}
		for _, o := range objs {
			f2.Add(&Entry{Objectives: o})
		}
		e1, e2 := f1.Entries(), f2.Entries()
		if len(e1) != len(e2) {
			return false
		}
		for i := range e1 {
			if e1[i].Objectives[0] != e2[i].Objectives[0] || e1[i].Objectives[1] != e2[i].Objectives[1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkFrontAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	objs := make([][]float64, 1000)
	for i := range objs {
		objs[i] = []float64{rng.Float64() * 100, rng.Float64() * 100}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := &Front{}
		for _, o := range objs {
			f.Add(&Entry{Objectives: o})
		}
	}
}

func TestAdditiveEpsilon(t *testing.T) {
	a, b := &Front{}, &Front{}
	a.Add(&Entry{Objectives: []float64{1, 1}})
	b.Add(&Entry{Objectives: []float64{1, 1}})
	if got := AdditiveEpsilon(a, b); got != 0 {
		t.Errorf("identical fronts: eps = %v, want 0", got)
	}
	b2 := &Front{}
	b2.Add(&Entry{Objectives: []float64{0.5, 2}})
	// a = (1,1): shift needed to cover (0.5,2): max(1-0.5, 1-2) = 0.5.
	if got := AdditiveEpsilon(a, b2); got != 0.5 {
		t.Errorf("eps = %v, want 0.5", got)
	}
	// Covering front has eps 0 against anything it dominates.
	c := &Front{}
	c.Add(&Entry{Objectives: []float64{0, 0}})
	if got := AdditiveEpsilon(c, b2); got != 0 {
		t.Errorf("dominating front eps = %v, want 0", got)
	}
	if got := AdditiveEpsilon(a, &Front{}); got != 0 {
		t.Errorf("empty B: eps = %v, want 0", got)
	}
}
