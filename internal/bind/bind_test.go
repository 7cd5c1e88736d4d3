package bind

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hgraph"
	"repro/internal/spec"
)

// buildFig2 constructs a Fig. 2-style decoder specification. The
// architecture has no bus between the ASIC and the FPGA, so the
// published infeasible-binding example (decryption on the ASIC,
// uncompression on the FPGA) must be rejected.
func buildFig2(t testing.TB) *spec.Spec {
	t.Helper()
	pb := hgraph.NewBuilder("problem", "ptop")
	r := pb.Root()
	r.Vertex("PA").Vertex("PC")
	ifD := r.Interface("IfD", hgraph.Port{Name: "in"}, hgraph.Port{Name: "out", Dir: hgraph.Out})
	ifD.Cluster("gD1").Vertex("PD1", spec.AttrPeriod, 300).Bind("in", "PD1").Bind("out", "PD1")
	ifD.Cluster("gD2").Vertex("PD2", spec.AttrPeriod, 300).Bind("in", "PD2").Bind("out", "PD2")
	ifD.Cluster("gD3").Vertex("PD3", spec.AttrPeriod, 300).Bind("in", "PD3").Bind("out", "PD3")
	ifU := r.Interface("IfU", hgraph.Port{Name: "in"}, hgraph.Port{Name: "out", Dir: hgraph.Out})
	ifU.Cluster("gU1").Vertex("PU1", spec.AttrPeriod, 300).Bind("in", "PU1").Bind("out", "PU1")
	ifU.Cluster("gU2").Vertex("PU2", spec.AttrPeriod, 300).Bind("in", "PU2").Bind("out", "PU2")
	r.PortEdge("PC", "", "IfD", "in")
	r.PortEdge("IfD", "out", "IfU", "in")
	problem := pb.MustBuild()

	ab := hgraph.NewBuilder("arch", "atop")
	ar := ab.Root()
	ar.Vertex("uP", spec.AttrCost, 50)
	ar.Vertex("A", spec.AttrCost, 100)
	ar.Vertex("C1", spec.AttrCost, 5, spec.AttrComm, 1)
	ar.Vertex("C2", spec.AttrCost, 5, spec.AttrComm, 1)
	fpga := ar.Interface("FPGA", hgraph.Port{Name: "bus"})
	fpga.Cluster("dD3").Vertex("D3", spec.AttrCost, 20).Bind("bus", "D3")
	fpga.Cluster("dU2").Vertex("U2", spec.AttrCost, 20).Bind("bus", "U2")
	ar.Edge("uP", "C1")
	ar.PortEdge("C1", "", "FPGA", "bus")
	ar.Edge("uP", "C2")
	ar.Edge("C2", "A")
	arch := ab.MustBuild()

	return spec.MustNew("fig2", problem, arch, []*spec.Mapping{
		{Process: "PA", Resource: "uP", Latency: 55},
		{Process: "PC", Resource: "uP", Latency: 10},
		{Process: "PD1", Resource: "uP", Latency: 85},
		{Process: "PD1", Resource: "A", Latency: 25},
		{Process: "PD2", Resource: "A", Latency: 35},
		{Process: "PD3", Resource: "D3", Latency: 63},
		{Process: "PU1", Resource: "uP", Latency: 40},
		{Process: "PU1", Resource: "A", Latency: 15},
		{Process: "PU2", Resource: "A", Latency: 29},
		{Process: "PU2", Resource: "U2", Latency: 59},
	})
}

// flatAndView flattens the problem graph under a decoder behaviour and
// builds the architecture view for an allocation.
func flatAndView(t testing.TB, s *spec.Spec, d, u string, alloc spec.Allocation, archSel hgraph.Selection) (*hgraph.FlatGraph, *spec.ArchView) {
	t.Helper()
	fp, err := s.Problem.Flatten(hgraph.Selection{"IfD": hgraph.ID(d), "IfU": hgraph.ID(u)})
	if err != nil {
		t.Fatal(err)
	}
	av, err := s.ArchViewFor(alloc, archSel)
	if err != nil {
		t.Fatal(err)
	}
	return fp, av
}

func TestFindOnSingleProcessor(t *testing.T) {
	s := buildFig2(t)
	fp, av := flatAndView(t, s, "gD1", "gU1", spec.NewAllocation("uP"), nil)
	res, ok := Find(s, fp, av, Options{})
	if !ok {
		t.Fatal("binding on uP alone should exist (PD1, PU1 both map to uP)")
	}
	if res.Binding["PD1"] != "uP" || res.Binding["PU1"] != "uP" {
		t.Errorf("binding = %v", res.Binding)
	}
	if err := Check(s, fp, av, res.Binding, Options{}); err != nil {
		t.Errorf("Check rejected solver output: %v", err)
	}
}

// TestFig2InfeasibleExample reproduces the paper's infeasible binding:
// P_D2 on the ASIC and the uncompression on the FPGA cannot
// communicate because no bus connects ASIC and FPGA.
func TestFig2InfeasibleExample(t *testing.T) {
	s := buildFig2(t)
	alloc := spec.NewAllocation("uP", "A", "C1", "C2", "dU2")
	fp, av := flatAndView(t, s, "gD2", "gU2", alloc, hgraph.Selection{"FPGA": "dU2"})

	// The manual infeasible binding is rejected by the validator.
	bad := Binding{"PA": "uP", "PC": "uP", "PD2": "A", "PU2": "U2"}
	if err := Check(s, fp, av, bad, Options{}); err == nil {
		t.Error("Check accepted the paper's infeasible binding (A ↔ FPGA without bus)")
	}

	// The solver finds the feasible alternative (PU2 on the ASIC).
	res, ok := Find(s, fp, av, Options{})
	if !ok {
		t.Fatal("a feasible binding exists (PD2 and PU2 both on A)")
	}
	if res.Binding["PD2"] != "A" || res.Binding["PU2"] != "A" {
		t.Errorf("binding = %v, want PD2 and PU2 on A", res.Binding)
	}
}

func TestFindInfeasibleWhenOnlyFPGAHostsU2(t *testing.T) {
	s := buildFig2(t)
	// Without the ASIC, PD2 has no resource at all.
	alloc := spec.NewAllocation("uP", "C1", "dU2")
	fp, av := flatAndView(t, s, "gD2", "gU2", alloc, hgraph.Selection{"FPGA": "dU2"})
	if _, ok := Find(s, fp, av, Options{}); ok {
		t.Error("PD2 unbindable without ASIC; Find must fail")
	}
}

func TestFindCommunicationViaBus(t *testing.T) {
	s := buildFig2(t)
	// PD3 only runs on the FPGA design D3; PU1 then must sit on uP
	// (reachable via C1), not on the unconnected ASIC.
	alloc := spec.NewAllocation("uP", "A", "C1", "dD3")
	fp, av := flatAndView(t, s, "gD3", "gU1", alloc, hgraph.Selection{"FPGA": "dD3"})
	res, ok := Find(s, fp, av, Options{})
	if !ok {
		t.Fatal("feasible binding exists (PD3 on D3, PU1 on uP)")
	}
	if res.Binding["PD3"] != "D3" || res.Binding["PU1"] != "uP" {
		t.Errorf("binding = %v", res.Binding)
	}
	if err := Check(s, fp, av, res.Binding, Options{}); err != nil {
		t.Error(err)
	}
}

func TestTimingPolicies(t *testing.T) {
	// Two period-240 tasks of 95 and 90 on a single processor: the
	// paper's 69% test rejects (U = 0.77), exact RTA accepts
	// (R = 95, 185 ≤ 240) — the ablation the paper's §2 foreshadows.
	pb := hgraph.NewBuilder("p", "pt")
	pb.Root().Vertex("X", spec.AttrPeriod, 240).Vertex("Y", spec.AttrPeriod, 240)
	pb.Root().Edge("X", "Y")
	prob := pb.MustBuild()
	ab := hgraph.NewBuilder("a", "at")
	ab.Root().Vertex("uP", spec.AttrCost, 100)
	arch := ab.MustBuild()
	s := spec.MustNew("timing", prob, arch, []*spec.Mapping{
		{Process: "X", Resource: "uP", Latency: 95},
		{Process: "Y", Resource: "uP", Latency: 90},
	})
	fp, err := s.Problem.Flatten(nil)
	if err != nil {
		t.Fatal(err)
	}
	av, err := s.ArchViewFor(spec.NewAllocation("uP"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := Find(s, fp, av, Options{Timing: TimingPaper}); ok {
		t.Error("paper 69% test must reject U=0.77")
	}
	if _, ok := Find(s, fp, av, Options{Timing: TimingLiuLayland}); !ok {
		t.Error("exact Liu-Layland bound accepts U=0.77 for n=2 (bound 0.828)")
	}
	if _, ok := Find(s, fp, av, Options{Timing: TimingRTA}); !ok {
		t.Error("exact RTA should accept")
	}
	if _, ok := Find(s, fp, av, Options{Timing: TimingNone}); !ok {
		t.Error("TimingNone should accept")
	}
}

func TestCheckRejections(t *testing.T) {
	s := buildFig2(t)
	alloc := spec.NewAllocation("uP", "A", "C2")
	fp, av := flatAndView(t, s, "gD1", "gU1", alloc, nil)
	good := Binding{"PA": "uP", "PC": "uP", "PD1": "A", "PU1": "A"}
	if err := Check(s, fp, av, good, Options{}); err != nil {
		t.Fatalf("good binding rejected: %v", err)
	}
	cases := []struct {
		name string
		b    Binding
	}{
		{"unbound process", Binding{"PA": "uP", "PC": "uP", "PD1": "A"}},
		{"no mapping edge", Binding{"PA": "A", "PC": "uP", "PD1": "A", "PU1": "A"}},
		{"resource not allocated", Binding{"PA": "uP", "PC": "uP", "PD1": "uP", "PU1": "U2"}},
		{"extra process", Binding{"PA": "uP", "PC": "uP", "PD1": "A", "PU1": "A", "PD2": "A"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := Check(s, fp, av, tc.b, Options{}); err == nil {
				t.Errorf("Check accepted %s", tc.name)
			}
		})
	}
}

func TestMaxNodesTruncation(t *testing.T) {
	s := buildFig2(t)
	alloc := spec.NewAllocation("uP", "A", "C1", "C2", "dD3")
	fp, av := flatAndView(t, s, "gD3", "gU1", alloc, hgraph.Selection{"FPGA": "dD3"})
	res, ok := Find(s, fp, av, Options{MaxNodes: 1})
	if ok {
		t.Error("MaxNodes=1 cannot complete this instance")
	}
	if !res.Truncated {
		t.Error("Truncated flag should be set")
	}
}

func TestDeterminism(t *testing.T) {
	s := buildFig2(t)
	alloc := spec.NewAllocation("uP", "A", "C1", "C2", "dD3", "dU2")
	fp, av := flatAndView(t, s, "gD1", "gU2", alloc, hgraph.Selection{"FPGA": "dU2"})
	first, ok := Find(s, fp, av, Options{})
	if !ok {
		t.Fatal("binding should exist")
	}
	for i := 0; i < 5; i++ {
		again, ok := Find(s, fp, av, Options{})
		if !ok || again.Binding.String() != first.Binding.String() {
			t.Fatalf("nondeterministic result: %v vs %v", again.Binding, first.Binding)
		}
		if again.Nodes != first.Nodes {
			t.Fatalf("nondeterministic node count: %d vs %d", again.Nodes, first.Nodes)
		}
	}
}

func TestTotalLatency(t *testing.T) {
	s := buildFig2(t)
	b := Binding{"PA": "uP", "PC": "uP", "PD1": "A", "PU1": "A"}
	if got := TotalLatency(s, b); got != 55+10+25+15 {
		t.Errorf("TotalLatency = %v, want 105", got)
	}
	// Floating-point addition is not associative: 1e16 absorbs a small
	// addend differently depending on when it comes, so only a fixed
	// summation order gives the same total on every call.
	s.Mapping("PD1", "A").Latency = 1e16
	want := 55.0
	want += 10
	want += 1e16
	want += 15
	for i := 0; i < 50; i++ {
		if got := TotalLatency(s, b); got != want {
			t.Fatalf("TotalLatency = %v, want %v (the sum in process order)", got, want)
		}
	}
}

func TestBindingCloneAndString(t *testing.T) {
	b := Binding{"p": "r"}
	c := b.Clone()
	c["p"] = "other"
	if b["p"] != "r" {
		t.Error("Clone shares storage")
	}
	if b.String() != "{p->r}" {
		t.Errorf("String = %s", b.String())
	}
}

// Property: whenever Find succeeds, Check accepts its output — across
// random allocations, behaviours and timing policies.
func TestPropFindOutputsAreValid(t *testing.T) {
	s := buildFig2(t)
	elems := []hgraph.ID{"uP", "A", "C1", "C2", "dD3", "dU2"}
	ds := []string{"gD1", "gD2", "gD3"}
	us := []string{"gU1", "gU2"}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		alloc := spec.Allocation{}
		for _, e := range elems {
			if rng.Intn(2) == 0 {
				alloc[e] = true
			}
		}
		d := ds[rng.Intn(len(ds))]
		u := us[rng.Intn(len(us))]
		policy := TimingPolicy(rng.Intn(4))
		ok := true
		alloc.EnumerateArchSelections(s, func(archSel hgraph.Selection) bool {
			fp, err := s.Problem.Flatten(hgraph.Selection{"IfD": hgraph.ID(d), "IfU": hgraph.ID(u)})
			if err != nil {
				ok = false
				return false
			}
			av, err := s.ArchViewFor(alloc, archSel)
			if err != nil {
				ok = false
				return false
			}
			res, found := Find(s, fp, av, Options{Timing: policy})
			if found {
				if err := Check(s, fp, av, res.Binding, Options{Timing: policy}); err != nil {
					ok = false
					return false
				}
			}
			return true
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: a stricter timing policy never finds a binding where a
// looser one proves infeasibility (None ⊇ RTA ⊇ {LL, Paper} acceptance).
func TestPropTimingPolicyOrdering(t *testing.T) {
	s := buildFig2(t)
	ds := []string{"gD1", "gD2", "gD3"}
	us := []string{"gU1", "gU2"}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		alloc := spec.NewAllocation("uP", "A", "C1", "C2")
		d := ds[rng.Intn(len(ds))]
		u := us[rng.Intn(len(us))]
		fp, err := s.Problem.Flatten(hgraph.Selection{"IfD": hgraph.ID(d), "IfU": hgraph.ID(u)})
		if err != nil {
			return true // unbindable behaviours are fine
		}
		av, err := s.ArchViewFor(alloc, nil)
		if err != nil {
			return false
		}
		_, okNone := Find(s, fp, av, Options{Timing: TimingNone})
		_, okRTA := Find(s, fp, av, Options{Timing: TimingRTA})
		_, okLL := Find(s, fp, av, Options{Timing: TimingLiuLayland})
		_, okPaper := Find(s, fp, av, Options{Timing: TimingPaper})
		if okRTA && !okNone {
			return false
		}
		if okLL && !okRTA {
			return false
		}
		if okPaper && !okRTA {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkFind(b *testing.B) {
	s := buildFig2(b)
	alloc := spec.NewAllocation("uP", "A", "C1", "C2", "dD3", "dU2")
	fp, err := s.Problem.Flatten(hgraph.Selection{"IfD": "gD3", "IfU": "gU2"})
	if err != nil {
		b.Fatal(err)
	}
	av, err := s.ArchViewFor(alloc, hgraph.Selection{"FPGA": "dD3"})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Find(s, fp, av, Options{})
	}
}

func TestTimingEDFPolicy(t *testing.T) {
	// Two period-240 tasks of 95 and 90: U = 0.77 — rejected by the
	// paper's estimate, accepted by EDF (U ≤ 1).
	pb := hgraph.NewBuilder("p", "pt2")
	pb.Root().Vertex("X2", spec.AttrPeriod, 240).Vertex("Y2", spec.AttrPeriod, 240)
	prob := pb.MustBuild()
	ab := hgraph.NewBuilder("a", "at2")
	ab.Root().Vertex("uP", spec.AttrCost, 100)
	arch := ab.MustBuild()
	s := spec.MustNew("edf", prob, arch, []*spec.Mapping{
		{Process: "X2", Resource: "uP", Latency: 95},
		{Process: "Y2", Resource: "uP", Latency: 90},
	})
	fp, err := s.Problem.Flatten(nil)
	if err != nil {
		t.Fatal(err)
	}
	av, err := s.ArchViewFor(spec.NewAllocation("uP"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := Find(s, fp, av, Options{Timing: TimingEDF}); !ok {
		t.Error("EDF policy should accept U=0.77")
	}
	if TimingEDF.String() != "edf" {
		t.Errorf("String = %s", TimingEDF.String())
	}
}

func TestTimingHyperbolicPolicy(t *testing.T) {
	// Classic set (1,2)+(1,3): LL rejects, hyperbolic accepts exactly.
	pb := hgraph.NewBuilder("p", "pth")
	pb.Root().Vertex("H1", spec.AttrPeriod, 2).Vertex("H2", spec.AttrPeriod, 3)
	prob := pb.MustBuild()
	ab := hgraph.NewBuilder("a", "ath")
	ab.Root().Vertex("R", spec.AttrCost, 1)
	arch := ab.MustBuild()
	s := spec.MustNew("hyp", prob, arch, []*spec.Mapping{
		{Process: "H1", Resource: "R", Latency: 1},
		{Process: "H2", Resource: "R", Latency: 1},
	})
	fp, err := s.Problem.Flatten(nil)
	if err != nil {
		t.Fatal(err)
	}
	av, err := s.ArchViewFor(spec.NewAllocation("R"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := Find(s, fp, av, Options{Timing: TimingLiuLayland}); ok {
		t.Error("LL must reject U=0.833 for n=2")
	}
	if _, ok := Find(s, fp, av, Options{Timing: TimingHyperbolic}); !ok {
		t.Error("hyperbolic bound accepts (1.5)(4/3) = 2")
	}
	if TimingHyperbolic.String() != "hyperbolic" {
		t.Error("String")
	}
}

// TestParseTiming: every policy round-trips through its String form,
// each front-end name selects its policy, and anything else is refused.
func TestParseTiming(t *testing.T) {
	for p := TimingPaper; p <= TimingHyperbolic; p++ {
		if got, err := ParseTiming(p.String()); err != nil || got != p {
			t.Errorf("ParseTiming(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	names := map[string]TimingPolicy{
		"paper": TimingPaper, "none": TimingNone, "ll": TimingLiuLayland,
		"liu-layland": TimingLiuLayland, "rta": TimingRTA, "edf": TimingEDF,
		"hyperbolic": TimingHyperbolic,
	}
	for name, want := range names {
		if got, err := ParseTiming(name); err != nil || got != want {
			t.Errorf("ParseTiming(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"", "bogus", "Paper", "TimingPolicy(6)"} {
		if _, err := ParseTiming(name); err == nil {
			t.Errorf("ParseTiming(%q) accepted", name)
		}
	}
}

// TestCheckReportsFirstBoundOverload: with two resources over the 69%
// bound, Check names the one bound first in fp.Vertices order, on
// every call.
func TestCheckReportsFirstBoundOverload(t *testing.T) {
	pb := hgraph.NewBuilder("p", "pov")
	pb.Root().
		Vertex("A", spec.AttrPeriod, 100).
		Vertex("B", spec.AttrPeriod, 100).
		Vertex("C", spec.AttrPeriod, 100).
		Vertex("D", spec.AttrPeriod, 100)
	prob := pb.MustBuild()
	ab := hgraph.NewBuilder("a", "aov")
	ab.Root().Vertex("R1", spec.AttrCost, 1).Vertex("R2", spec.AttrCost, 1)
	arch := ab.MustBuild()
	s := spec.MustNew("overload", prob, arch, []*spec.Mapping{
		{Process: "A", Resource: "R2", Latency: 40},
		{Process: "B", Resource: "R1", Latency: 40},
		{Process: "C", Resource: "R1", Latency: 40},
		{Process: "D", Resource: "R2", Latency: 40},
	})
	fp, err := s.Problem.Flatten(nil)
	if err != nil {
		t.Fatal(err)
	}
	av, err := s.ArchViewFor(spec.NewAllocation("R1", "R2"), nil)
	if err != nil {
		t.Fatal(err)
	}
	b := Binding{"A": "R2", "B": "R1", "C": "R1", "D": "R2"}
	const want = `bind: resource "R2" fails timing policy paper-69% (utilization 0.800)`
	for i := 0; i < 50; i++ {
		err := Check(s, fp, av, b, Options{})
		if err == nil || err.Error() != want {
			t.Fatalf("call %d: Check = %v, want %s", i, err, want)
		}
	}
}
