package core

import (
	"testing"

	"repro/internal/hgraph"
	"repro/internal/models"
	"repro/internal/spec"
)

// TestSDRExploration pins the second case study (software-defined
// radio): the Pareto front, its agreement with exhaustive search, and
// the structural reasons behind each step.
func TestSDRExploration(t *testing.T) {
	s := models.SDR()
	r := Explore(s, Options{})
	if r.MaxFlexibility != 6 {
		t.Errorf("max flexibility = %v, want 6 (gsm 3 + wifi 2 + bt 1)", r.MaxFlexibility)
	}
	want := []struct {
		alloc spec.Allocation
		cost  float64
		flex  float64
	}{
		{spec.NewAllocation("DSP1"), 150, 2},
		{spec.NewAllocation("DSP2", "B5", "dVit"), 239, 3},
		{spec.NewAllocation("DSP2", "B5", "dVit", "dOFDM"), 294, 4},
		{spec.NewAllocation("DSP2", "B4", "ACC"), 412, 6},
	}
	if len(r.Front) != len(want) {
		t.Fatalf("front size = %d, want %d: %v", len(r.Front), len(want), r.Front)
	}
	for i, w := range want {
		got := r.Front[i]
		if got.Cost != w.cost || got.Flexibility != w.flex || !got.Allocation.Equal(w.alloc) {
			t.Errorf("row %d = %v, want %v at (%v,%v)", i, got, w.alloc, w.cost, w.flex)
		}
	}

	ex := Explore(s, Options{}.Exhaustive())
	if len(ex.Front) != len(r.Front) {
		t.Fatalf("exhaustive disagrees: %d rows", len(ex.Front))
	}
	for i := range ex.Front {
		if ex.Front[i].Cost != r.Front[i].Cost || ex.Front[i].Flexibility != r.Front[i].Flexibility {
			t.Errorf("exhaustive row %d differs", i)
		}
	}
}

// TestSDRStructuralFacts checks the domain constraints that shape the
// front: the FPGA cannot host OFDM and Viterbi at once, WiFi does not
// fit on DSP2 alone (utilization), and the accelerator unlocks the
// heavy GSM alternatives.
func TestSDRStructuralFacts(t *testing.T) {
	s := models.SDR()

	// WiFi on DSP2 alone: (300+330)/500 = 1.26 — rejected.
	im := Implement(s, spec.NewAllocation("DSP2"), Options{}, nil)
	if im == nil {
		t.Fatal("DSP2 implements at least GSM-FR + BT")
	}
	for _, c := range im.Clusters {
		if c == "wifi" {
			t.Error("wifi must not fit on DSP2 alone")
		}
	}

	// With both FPGA designs but no DSP2 bus to them... B1 connects
	// DSP1; Pofdm has no DSP1 mapping, so wifi needs B5+DSP2 or ACC.
	im2 := Implement(s, spec.NewAllocation("DSP1", "B1", "dOFDM", "dVit"), Options{}, nil)
	if im2 != nil {
		for _, c := range im2.Clusters {
			if c == "wifi" {
				t.Error("OFDM+Viterbi both on the single FPGA cannot coexist, and DSP1 hosts neither")
			}
		}
	}

	// The 412 solution implements everything; verify its behaviours
	// include all three standards.
	im3 := Implement(s, spec.NewAllocation("DSP2", "B4", "ACC"), Options{AllBehaviours: true}, nil)
	if im3 == nil || im3.Flexibility != 6 {
		t.Fatalf("full SDR = %v, want f=6", im3)
	}
	stds := map[hgraph.ID]bool{}
	for _, b := range im3.Behaviours {
		stds[b.ECS.Selection["IStd"]] = true
	}
	for _, std := range []hgraph.ID{"gsm", "wifi", "bt"} {
		if !stds[std] {
			t.Errorf("standard %s not among implemented behaviours", std)
		}
	}
}

func BenchmarkSDRExplore(b *testing.B) {
	s := models.SDR()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := Explore(s, Options{})
		if len(r.Front) != 4 {
			b.Fatal("wrong front")
		}
	}
}
