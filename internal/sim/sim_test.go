package sim

import (
	"maps"
	"testing"

	"repro/internal/activation"
	"repro/internal/bind"
	"repro/internal/core"
	"repro/internal/hgraph"
	"repro/internal/models"
	"repro/internal/spec"
)

func tv(d, u string) hgraph.Selection {
	return hgraph.Selection{"IApp": "gD", "ID": hgraph.ID(d), "IU": hgraph.ID(u)}
}

func game(g string) hgraph.Selection {
	return hgraph.Selection{"IApp": "gG", "IG": hgraph.ID(g)}
}

func browser() hgraph.Selection { return hgraph.Selection{"IApp": "gI"} }

// impl290 builds the $290 case-study implementation with its full
// behaviour inventory.
func impl290(t testing.TB) (*spec.Spec, *core.Implementation) {
	t.Helper()
	s := models.SetTopBox()
	im := core.Implement(s, spec.NewAllocation("uP2", "dD3", "dG1", "dU2", "C1"),
		core.Options{AllBehaviours: true}, nil)
	if im == nil {
		t.Fatal("$290 allocation should implement")
	}
	return s, im
}

func TestRunServesAndRejects(t *testing.T) {
	s, im := impl290(t)
	trace := []Request{
		{At: 0, Behaviour: tv("gD1", "gU1")},
		{At: 100, Behaviour: game("gG1")},
		{At: 200, Behaviour: tv("gD3", "gU1")},
		{At: 300, Behaviour: game("gG2")},      // not implemented: PG2 needs an ASIC
		{At: 400, Behaviour: tv("gD3", "gU2")}, // FPGA conflict: D3 and U2 share it
		{At: 500, Behaviour: tv("gD2", "gU1")}, // PD2 needs an ASIC
		{At: 600, Behaviour: browser()},
	}
	rep, err := Run(s, im, trace, Config{ReconfigDelay: 5, SwitchDelay: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served != 4 || rep.Rejected != 3 {
		t.Errorf("served/rejected = %d/%d, want 4/3", rep.Served, rep.Rejected)
	}
	if rep.Reconfigurations < 1 {
		t.Error("switching between game (G1) and TV (D3) must reconfigure the FPGA")
	}
	if rep.SwitchOverhead <= 0 {
		t.Error("switch overhead should accumulate")
	}
	if got := rep.ServedFraction(); got != 4.0/7.0 {
		t.Errorf("served fraction = %v, want 4/7", got)
	}
	// The emitted schedule is a valid hierarchical timed activation.
	if err := activation.CheckSchedule(s, im.Allocation, &rep.Schedule, bind.Options{}); err != nil {
		t.Errorf("emitted schedule invalid: %v", err)
	}
}

func TestRunConsecutiveSameBehaviour(t *testing.T) {
	s, im := impl290(t)
	trace := []Request{
		{At: 0, Behaviour: browser()},
		{At: 10, Behaviour: browser()},
	}
	rep, err := Run(s, im, trace, Config{SwitchDelay: 100})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served != 2 {
		t.Errorf("served = %d, want 2", rep.Served)
	}
	if len(rep.Schedule.Phases) != 1 {
		t.Errorf("phases = %d, want 1 (no switch for identical behaviour)", len(rep.Schedule.Phases))
	}
	if rep.SwitchOverhead != 0 {
		t.Errorf("overhead = %v, want 0", rep.SwitchOverhead)
	}
}

func TestRunMalformedTraces(t *testing.T) {
	s, im := impl290(t)
	if _, err := Run(s, im, []Request{{At: -1, Behaviour: browser()}}, Config{}); err == nil {
		t.Error("negative time must error")
	}
	if _, err := Run(s, im, []Request{{At: 0}}, Config{}); err == nil {
		t.Error("nil behaviour must error")
	}
}

func TestRunUnsortedTrace(t *testing.T) {
	s, im := impl290(t)
	trace := []Request{
		{At: 200, Behaviour: game("gG1")},
		{At: 0, Behaviour: browser()},
	}
	rep, err := Run(s, im, trace, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Schedule.Phases) != 2 || rep.Schedule.Phases[0].Start != 0 {
		t.Errorf("trace should be processed in time order: %+v", rep.Schedule.Phases)
	}
}

func TestExpectedServiceLevel(t *testing.T) {
	s, im := impl290(t)
	// Feasible behaviours: browser, game G1, TV (D1,U1), (D1,U2),
	// (D3,U1) — (D3,U2) conflicts on the FPGA — of 10 variants total.
	if got := ExpectedServiceLevel(s, im); got != 0.5 {
		t.Errorf("expected service level = %v, want 5/10", got)
	}
	if len(im.Behaviours) != 5 {
		t.Errorf("behaviours = %d, want 5", len(im.Behaviours))
	}
}

// TestServiceLevelGrowsWithFlexibility: across the case-study Pareto
// front, the expected service level is nondecreasing — the runtime
// payoff of flexibility (experiment E12, beyond the paper).
func TestServiceLevelGrowsWithFlexibility(t *testing.T) {
	s := models.SetTopBox()
	r := core.Explore(s, core.Options{AllBehaviours: true})
	if len(r.Front) != 6 {
		t.Fatalf("front size = %d", len(r.Front))
	}
	prev := -1.0
	for _, im := range r.Front {
		level := ExpectedServiceLevel(s, im)
		if level < prev {
			t.Errorf("service level dropped to %v at %v (prev %v)", level, im, prev)
		}
		prev = level
	}
	// Cheapest: browser + one TV variant; costliest: all but (D3,U2).
	if first := ExpectedServiceLevel(s, r.Front[0]); first != 0.2 {
		t.Errorf("service level of $100 point = %v, want 2/10", first)
	}
	if last := ExpectedServiceLevel(s, r.Front[5]); last != 0.9 {
		t.Errorf("service level of $430 point = %v, want 9/10", last)
	}
	// The same payoff observed on a 200-request random trace.
	if levels := ServiceLevel(s, r.Front, 7, 200); levels[0] != 0.185 || levels[5] != 0.895 {
		t.Errorf("observed service levels = %v, want 0.185 at $100 and 0.895 at $430", levels)
	}
}

func TestRandomTraceAndServiceLevel(t *testing.T) {
	s, im := impl290(t)
	trace := RandomTrace(s, 7, 200)
	if len(trace) != 200 {
		t.Fatalf("trace length = %d", len(trace))
	}
	// Deterministic in seed.
	again := RandomTrace(s, 7, 200)
	for i := range trace {
		if !maps.Equal(trace[i].Behaviour, again[i].Behaviour) {
			t.Fatal("RandomTrace not deterministic")
		}
	}
	rep, err := Run(s, im, trace, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The empirical served fraction must match the per-request
	// expectation computed directly from the trace.
	want := 0
	for _, rq := range trace {
		if findBehaviour(im, rq.Behaviour) != nil {
			want++
		}
	}
	if rep.Served != want {
		t.Errorf("served = %d, want %d", rep.Served, want)
	}
	levels := ServiceLevel(s, []*core.Implementation{im}, 7, 100)
	if len(levels) != 1 || levels[0] <= 0 || levels[0] > 1 {
		t.Errorf("ServiceLevel = %v", levels)
	}
}

func BenchmarkRun(b *testing.B) {
	s, im := impl290(b)
	trace := RandomTrace(s, 1, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(s, im, trace, Config{ReconfigDelay: 5}); err != nil {
			b.Fatal(err)
		}
	}
}
