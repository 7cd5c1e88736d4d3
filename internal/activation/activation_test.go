package activation

import (
	"maps"
	"testing"

	"repro/internal/bind"
	"repro/internal/core"
	"repro/internal/hgraph"
	"repro/internal/models"
	"repro/internal/spec"
)

func tvSelection(d, u string) hgraph.Selection {
	return hgraph.Selection{"IApp": "gD", "ID": hgraph.ID(d), "IU": hgraph.ID(u)}
}

func gameSelection(g string) hgraph.Selection {
	return hgraph.Selection{"IApp": "gG", "IG": hgraph.ID(g)}
}

func TestScheduleNormalizeAndAt(t *testing.T) {
	s := &Schedule{Phases: []Phase{
		{Start: 10, Selection: gameSelection("gG1")},
		{Start: 0, Selection: tvSelection("gD1", "gU1")},
	}}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s.Phases[0].Start != 0 {
		t.Error("phases not sorted")
	}
	if ph := s.At(-1); ph != nil {
		t.Error("At(-1) should be nil (system not yet activated)")
	}
	if ph := s.At(5); ph == nil || ph.Start != 0 {
		t.Errorf("At(5) = %v, want phase at 0", ph)
	}
	if ph := s.At(10); ph == nil || ph.Start != 10 {
		t.Errorf("At(10) = %v, want phase at 10", ph)
	}
	if ph := s.At(99); ph == nil || ph.Start != 10 {
		t.Errorf("At(99) = %v, want last phase", ph)
	}
	dup := &Schedule{Phases: []Phase{{Start: 1}, {Start: 1}}}
	if err := dup.Normalize(); err == nil {
		t.Error("duplicate start times should fail")
	}
}

func TestScheduleSwitches(t *testing.T) {
	s := &Schedule{Phases: []Phase{
		{Start: 0, ArchSelection: hgraph.Selection{"FPGA": "dG1"}},
		{Start: 1, ArchSelection: hgraph.Selection{"FPGA": "dG1"}},
		{Start: 2, ArchSelection: hgraph.Selection{"FPGA": "dU2"}},
		{Start: 3, ArchSelection: hgraph.Selection{}},
	}}
	b, r := s.Switches()
	if b != 3 {
		t.Errorf("behaviour switches = %d, want 3", b)
	}
	if r != 2 {
		t.Errorf("reconfigurations = %d, want 2", r)
	}
}

func TestCheckSelectionRules(t *testing.T) {
	g := models.SetTopProblem()
	if vs := CheckSelection(g, tvSelection("gD1", "gU1")); len(vs) != 0 {
		t.Errorf("valid selection rejected: %v", vs)
	}
	// Rule 4: activated interface IU unresolved.
	vs := CheckSelection(g, hgraph.Selection{"IApp": "gD", "ID": "gD1"})
	if len(vs) == 0 || vs[0].Rule != 4 {
		t.Errorf("missing selection: %v, want rule 4", vs)
	}
	// Rule 1: unknown cluster.
	vs = CheckSelection(g, hgraph.Selection{"IApp": "nope"})
	if len(vs) == 0 || vs[0].Rule != 1 {
		t.Errorf("unknown cluster: %v, want rule 1", vs)
	}
	// Rule 1: selection for an interface that is not activated (IG is
	// inside the game cluster, but the TV cluster is selected).
	sel := tvSelection("gD1", "gU1")
	sel["IG"] = "gG1"
	vs = CheckSelection(g, sel)
	if len(vs) == 0 || vs[0].Rule != 1 {
		t.Errorf("inactive interface: %v, want rule 1", vs)
	}
	if vs[0].Error() == "" {
		t.Error("violation must render an error message")
	}
}

// implementation returns the $290 case-study implementation, which can
// run the browser, game class 1 and four TV variants.
func implementation(t testing.TB) (*spec.Spec, *core.Implementation) {
	t.Helper()
	s := models.SetTopBox()
	a := spec.NewAllocation("uP2", "dD3", "dG1", "dU2", "C1")
	im := core.Implement(s, a, core.Options{}, nil)
	if im == nil {
		t.Fatal("case-study $290 allocation should be implementable")
	}
	return s, im
}

func TestCheckPhaseAndSchedule(t *testing.T) {
	s, im := implementation(t)
	// Assemble a day-in-the-life schedule from the implementation's own
	// behaviours: TV (D1,U1), then the game, then TV with D3.
	find := func(sel hgraph.Selection) Phase {
		for _, b := range im.Behaviours {
			if maps.Equal(b.ECS.Selection, sel) {
				return Phase{Selection: b.ECS.Selection, ArchSelection: b.ArchSelection, Binding: b.Binding}
			}
		}
		t.Fatalf("behaviour %v not implemented", sel)
		return Phase{}
	}
	p1 := find(tvSelection("gD1", "gU1"))
	p1.Start = 0
	p2 := find(gameSelection("gG1"))
	p2.Start = 100
	p3 := find(tvSelection("gD3", "gU1"))
	p3.Start = 200
	sched := &Schedule{Phases: []Phase{p1, p2, p3}}

	if err := CheckSchedule(s, im.Allocation, sched, bind.Options{}); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	used := sched.TimedAllocation(s)
	if !used.Subset(im.Allocation) {
		t.Errorf("timed allocation %v exceeds %v", used, im.Allocation)
	}
	if !used["uP2"] {
		t.Error("timed allocation must include uP2")
	}
	if !used["dG1"] || !used["dD3"] {
		t.Errorf("timed allocation must charge the used FPGA designs, got %v", used)
	}
	if used["dU2"] {
		t.Error("dU2 never used by this schedule")
	}
	_, reconfigs := sched.Switches()
	if reconfigs < 1 {
		t.Error("schedule should involve at least one FPGA reconfiguration")
	}
}

func TestCheckScheduleRejections(t *testing.T) {
	s, im := implementation(t)
	b := im.Behaviours[0]
	ph := Phase{Selection: b.ECS.Selection, ArchSelection: b.ArchSelection, Binding: b.Binding}

	if err := CheckSchedule(s, im.Allocation, &Schedule{}, bind.Options{}); err == nil {
		t.Error("empty schedule must be rejected (rule 4)")
	}

	// Architecture cluster not allocated.
	bad := ph
	bad.ArchSelection = hgraph.Selection{"FPGA": "dD3"}
	smaller := spec.NewAllocation("uP2")
	if err := CheckPhase(s, smaller, bad, bind.Options{}); err == nil {
		t.Error("unallocated architecture cluster must be rejected")
	}

	// Unknown architecture interface.
	bad2 := ph
	bad2.ArchSelection = hgraph.Selection{"GHOST": "dD3"}
	if err := CheckPhase(s, im.Allocation, bad2, bind.Options{}); err == nil {
		t.Error("unknown architecture interface must be rejected")
	}

	// Binding onto a resource outside the allocation.
	bad3 := ph
	bad3.Binding = ph.Binding.Clone()
	for p := range bad3.Binding {
		bad3.Binding[p] = "A3"
		break
	}
	if err := CheckPhase(s, im.Allocation, bad3, bind.Options{}); err == nil {
		t.Error("binding outside the allocation must be rejected")
	}

	// Incomplete problem selection.
	bad4 := ph
	bad4.Selection = hgraph.Selection{"IApp": "gD"}
	if err := CheckPhase(s, im.Allocation, bad4, bind.Options{}); err == nil {
		t.Error("incomplete selection must be rejected")
	}
}

func TestTimedAllocationIncludesBuses(t *testing.T) {
	s, im := implementation(t)
	// A behaviour whose binding spans uP2 and an FPGA design must charge
	// the connecting bus C1.
	for _, b := range im.Behaviours {
		onFPGA := false
		for _, r := range b.Binding {
			if r == "G1" || r == "D3" || r == "U2" {
				onFPGA = true
			}
		}
		if !onFPGA {
			continue
		}
		sched := &Schedule{Phases: []Phase{{
			Selection: b.ECS.Selection, ArchSelection: b.ArchSelection, Binding: b.Binding,
		}}}
		used := sched.TimedAllocation(s)
		if !used["C1"] {
			t.Errorf("bus C1 missing from timed allocation %v of behaviour %v", used, b.ECS)
		}
		return
	}
	t.Skip("no FPGA-bound behaviour found")
}

func BenchmarkCheckSchedule(b *testing.B) {
	s, im := implementation(b)
	var phases []Phase
	for i, beh := range im.Behaviours {
		phases = append(phases, Phase{
			Start: float64(i) * 10, Selection: beh.ECS.Selection,
			ArchSelection: beh.ArchSelection, Binding: beh.Binding,
		})
	}
	sched := &Schedule{Phases: phases}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := CheckSchedule(s, im.Allocation, sched, bind.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
