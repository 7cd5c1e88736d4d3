package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/alloc"
	"repro/internal/models"
	"repro/internal/spec"
)

// TestEstimateUnitsMatchesEstimate pins the allocation-free estimate to
// the uncached reference: for every candidate of each spec (a prefix of
// the 22-unit one), weighted and unweighted, the index-space estimate
// equals Estimate bit for bit, and its supportable set is
// SupportableClusters. The bound compares floats exactly, so a rounding
// difference would change which candidates are attempted.
func TestEstimateUnitsMatchesEstimate(t *testing.T) {
	cases := []struct {
		name  string
		s     *spec.Spec
		limit int // 0: every candidate
	}{
		{"settop", models.SetTopBox(), 0},
		{"decoder", models.Decoder(), 0},
		{"sdr", models.SDR(), 0},
		{"synthetic2", models.Synthetic(models.DefaultSynthetic(2)), 0},
		{"synthetic3", models.Synthetic(models.DefaultSynthetic(3)), 0},
		{"synthetic7", models.Synthetic(models.DefaultSynthetic(7)), 0},
		{"scaled22", models.Synthetic(models.ScaledSynthetic(1, 22)), 500},
	}
	for _, tc := range cases {
		for _, weighted := range []bool{false, true} {
			opts := Options{Weighted: weighted}
			ev := newEvaluator(tc.s, opts)
			sc := ev.sup.NewScratch()
			n := 0
			alloc.NewSupporter(tc.s).EnumerateSymbolicUnits(nil, alloc.Options{IncludeUselessComm: true}, 0, func(units []int, _ float64) bool {
				n++
				r := candRec{units: units}
				est, sup := ev.estimate(&r, sc)
				a := alloc.AllocationOf(ev.units, units)
				if want := Estimate(tc.s, a, opts); math.Float64bits(est) != math.Float64bits(want) {
					t.Fatalf("%s weighted=%v %v: estimate %v, Estimate %v", tc.name, weighted, a, est, want)
				}
				want := alloc.SupportableClusters(tc.s, a)
				got := ev.sup.Clusters.IDs(sup)
				if len(got) != len(want) {
					t.Fatalf("%s %v: supportable %v, want %v", tc.name, a, got, want)
				}
				for _, id := range got {
					if !want[id] {
						t.Fatalf("%s %v: supportable %v, want %v", tc.name, a, got, want)
					}
				}
				return tc.limit == 0 || n < tc.limit
			})
			if n == 0 || (tc.limit > 0 && n != tc.limit) {
				t.Errorf("%s: checked %d candidates", tc.name, n)
			}
		}
	}
}

// TestCandidateEstimateAllocatesNothing: estimating a candidate, and
// evaluating one the bound prunes, allocate nothing on the cached path.
// Only an attempt or a Diag builds the candidate's allocation map.
func TestCandidateEstimateAllocatesNothing(t *testing.T) {
	s := models.SetTopBox()
	for _, weighted := range []bool{false, true} {
		sc := newScan(context.Background(), s, Options{Weighted: weighted})
		var units []int
		alloc.NewSupporter(s).EnumerateSymbolicUnits(nil, alloc.Options{}, 40, func(u []int, _ float64) bool {
			units = append(units, u...)
			return false
		})
		r := &sc.rec
		if n := testing.AllocsPerRun(100, func() {
			*r = candRec{units: units}
			sc.ev.estimate(r, sc.scratch.sup)
		}); n != 0 {
			t.Errorf("weighted=%v: estimate allocates %v times per candidate, want 0", weighted, n)
		}
		// A bound above every estimate prunes the candidate.
		f := sc.boundFold(math.Inf(1))
		if n := testing.AllocsPerRun(100, func() {
			*r = candRec{units: units}
			sc.evalOne(r, 40, f, &sc.scratch)
		}); n != 0 {
			t.Errorf("weighted=%v: a pruned candidate allocates %v times, want 0", weighted, n)
		}
		if !r.estimated || r.attempted || r.a != nil {
			t.Errorf("weighted=%v: pruned record %+v: want estimated, not attempted, no map", weighted, r)
		}
	}
}
