package models

import (
	"os"
	"testing"
	"testing/quick"

	"repro/internal/alloc"
	"repro/internal/flex"
	"repro/internal/hgraph"
	"repro/internal/spec"
)

// TestFig1Leaves checks Eq. (1) on the Fig. 1 decoder: the leaves are
// {P_A, P_C, P_D1..3, P_U1..2}.
func TestFig1Leaves(t *testing.T) {
	g := DecoderProblem()
	leaves := g.Leaves()
	want := []hgraph.ID{"PA", "PC", "PD1", "PD2", "PD3", "PU1", "PU2"}
	if len(leaves) != len(want) {
		t.Fatalf("got %d leaves, want %d", len(leaves), len(want))
	}
	for i, w := range want {
		if leaves[i].ID != w {
			t.Errorf("leaf %d = %s, want %s", i, leaves[i].ID, w)
		}
	}
	if got := g.CountVariants(); got != 6 {
		t.Errorf("decoder variants = %d, want 6", got)
	}
}

// TestFig3Flexibility checks the paper's worked flexibility equation on
// the Set-Top problem graph: maximum flexibility 8; without the game
// cluster, 5.
func TestFig3Flexibility(t *testing.T) {
	g := SetTopProblem()
	if got := flex.MaxFlexibility(g); got != 8 {
		t.Errorf("max flexibility = %v, want 8", got)
	}
	if got := flex.Flexibility(g, flex.Except(flex.AllActive, "gG")); got != 5 {
		t.Errorf("flexibility without gG = %v, want 5", got)
	}
}

// TestSearchSpaceSize verifies the 2^25 headline: 14 allocatable
// architecture units plus 11 problem-graph clusters give 25 binary
// design decisions.
func TestSearchSpaceSize(t *testing.T) {
	s := SetTopBox()
	units := alloc.Units(s)
	if len(units) != 14 {
		t.Errorf("allocatable units = %d, want 14", len(units))
	}
	_, _, clusters, _ := s.Problem.ElementCount()
	if clusters != 11 {
		t.Errorf("problem clusters = %d, want 11", clusters)
	}
	if len(units)+clusters != 25 {
		t.Errorf("design decisions = %d, want 25 (search space 2^25)", len(units)+clusters)
	}
}

func TestTable1Published(t *testing.T) {
	rows := Table1()
	if len(rows) != 15 {
		t.Fatalf("Table 1 rows = %d, want 15", len(rows))
	}
	get := func(p, r string) float64 {
		for _, row := range rows {
			if row.Process == hgraph.ID(p) {
				return row.Latencies[hgraph.ID(r)]
			}
		}
		t.Fatalf("no row for %s", p)
		return 0
	}
	checks := []struct {
		p, r string
		want float64
	}{
		{"PCI", "uP1", 10}, {"PCI", "uP2", 12},
		{"PF", "uP2", 75},
		{"PG1", "G1", 20}, {"PG1", "A3", 15}, {"PG1", "uP1", 75}, {"PG1", "uP2", 95},
		{"PG3", "A3", 35},
		{"PD", "uP1", 70}, {"PD", "uP2", 90}, {"PD", "A3", 25},
		{"PD1", "uP1", 85}, {"PD1", "uP2", 95},
		{"PD3", "D3", 63},
		{"PU1", "uP1", 40}, {"PU1", "uP2", 45}, {"PU1", "A3", 10},
		{"PU2", "U2", 59}, {"PU2", "A3", 22},
	}
	for _, c := range checks {
		if got := get(c.p, c.r); got != c.want {
			t.Errorf("Table1[%s][%s] = %v, want %v", c.p, c.r, got, c.want)
		}
	}
	// Published gaps: PG2/PG3/PD2/PD3/PU2 have no processor mapping.
	for _, p := range []string{"PG2", "PG3", "PD2", "PD3", "PU2"} {
		if get(p, "uP1") != 0 || get(p, "uP2") != 0 {
			t.Errorf("%s must not map to processors", p)
		}
	}
}

func TestSetTopBoxAssembly(t *testing.T) {
	s := SetTopBox()
	if err := s.Validate(); err != nil {
		t.Fatalf("case study spec invalid: %v", err)
	}
	if got := len(s.Mappings); got != 47 {
		t.Errorf("mapping edges = %d, want 47 (Table 1 entries)", got)
	}
	if got := s.Period("PD"); got != GamePeriod {
		t.Errorf("Period(PD) = %v, want %v", got, GamePeriod)
	}
	if got := s.Period("PU2"); got != TVPeriod {
		t.Errorf("Period(PU2) = %v, want %v", got, TVPeriod)
	}
	if s.Period("PA") != 0 || s.Period("PCG") != 0 {
		t.Error("controllers/authentification must be untimed")
	}
	// Reconstructed allocation costs.
	costs := map[hgraph.ID]float64{
		"uP1": 120, "uP2": 100, "A1": 250, "A2": 280, "A3": 300,
		"D3": 60, "U2": 60, "G1": 60, "C1": 10, "C5": 60,
	}
	for id, want := range costs {
		if got := s.ResourceCost(id); got != want {
			t.Errorf("cost(%s) = %v, want %v", id, got, want)
		}
	}
}

// TestSetTopTopology checks the reconstructed bus topology: μP2 reaches
// FPGA and every ASIC, μP1 reaches only the FPGA (and μP2), and no
// ASIC↔FPGA link exists.
func TestSetTopTopology(t *testing.T) {
	s := SetTopBox()
	full := spec.NewAllocation("uP1", "uP2", "A1", "A2", "A3",
		"C1", "C2", "C3", "C4", "C5", "C6", "dD3")
	av, err := s.ArchViewFor(full, hgraph.Selection{"FPGA": "dD3"})
	if err != nil {
		t.Fatal(err)
	}
	if !av.CanCommunicate("uP2", "D3") || !av.CanCommunicate("uP2", "A1") ||
		!av.CanCommunicate("uP2", "A2") || !av.CanCommunicate("uP2", "A3") {
		t.Error("uP2 must reach FPGA and all ASICs")
	}
	if !av.CanCommunicate("uP1", "D3") || !av.CanCommunicate("uP1", "uP2") {
		t.Error("uP1 must reach FPGA and uP2")
	}
	if av.CanCommunicate("uP1", "A1") || av.CanCommunicate("A1", "D3") || av.CanCommunicate("A1", "A2") {
		t.Error("forbidden links present (uP1↔ASIC, ASIC↔FPGA, ASIC↔ASIC)")
	}
}

func TestDecoderSpec(t *testing.T) {
	s := Decoder()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// The only latencies published in the text.
	if m := s.Mapping("PU1", "uP"); m == nil || m.Latency != 40 {
		t.Errorf("Mapping(PU1,uP) = %v, want 40", m)
	}
	if m := s.Mapping("PU1", "A"); m == nil || m.Latency != 15 {
		t.Errorf("Mapping(PU1,A) = %v, want 15", m)
	}
	if !alloc.Possible(s, spec.NewAllocation("uP")) {
		t.Error("{uP} must be a possible allocation of the decoder")
	}
	if alloc.Possible(s, spec.NewAllocation("A", "C2")) {
		t.Error("decoder without uP cannot be possible")
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a := Synthetic(DefaultSynthetic(7))
	b := Synthetic(DefaultSynthetic(7))
	ja, err := a.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Error("same seed must produce identical specifications")
	}
	c := Synthetic(DefaultSynthetic(8))
	jc, _ := c.MarshalJSON()
	if string(ja) == string(jc) {
		t.Error("different seeds should differ")
	}
}

func TestSyntheticShape(t *testing.T) {
	p := SyntheticParams{Seed: 3, Apps: 4, Depth: 2, Branch: 2, Vertices: 2,
		Processors: 2, ASICs: 2, Designs: 2, Buses: 5, TimedFraction: 0.5}
	s := Synthetic(p)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// 4 apps, each with nested interfaces: variants = (per-app variants) summed.
	if v := s.Problem.CountVariants(); v < 4 {
		t.Errorf("variants = %d, want >= 4", v)
	}
	// Every process must map to at least one processor.
	for _, v := range s.Problem.Leaves() {
		found := false
		for _, m := range s.MappingsFor(v.ID) {
			if m.Resource == "uP1" || m.Resource == "uP2" {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("process %s has no processor mapping", v.ID)
		}
	}
	// A processor-only allocation is always possible.
	if !alloc.Possible(s, spec.NewAllocation("uP1", "uP2")) {
		t.Error("processor allocation must be possible")
	}
}

// Property: Synthetic always produces a valid specification whose
// maximum flexibility is at least the number of apps.
func TestPropSyntheticValid(t *testing.T) {
	prop := func(seed int64) bool {
		p := DefaultSynthetic(seed % 1000)
		p.Depth = int(seed % 3)
		s := Synthetic(p)
		if err := s.Validate(); err != nil {
			return false
		}
		return flex.MaxFlexibility(s.Problem) >= float64(p.Apps)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestScaledSynthetic: the scaled family hits its unit budget exactly
// (the unit count is the symbolic enumerator's variable count, so the
// scaling benchmarks depend on it being precise) and always admits at
// least one possible allocation.
func TestScaledSynthetic(t *testing.T) {
	for _, u := range []int{30, 50, 100} {
		s := Synthetic(ScaledSynthetic(1, u))
		if err := s.Validate(); err != nil {
			t.Fatalf("units=%d: invalid spec: %v", u, err)
		}
		if got := len(alloc.Units(s)); got != u {
			t.Errorf("units=%d: alloc.Units = %d", u, got)
		}
		if n := alloc.CountPossibleBig(s); n.Sign() <= 0 {
			t.Errorf("units=%d: no possible allocations", u)
		}
	}
}

func TestSyntheticDegenerate(t *testing.T) {
	// Zero-valued params fall back to defaults without panicking.
	s := Synthetic(SyntheticParams{Seed: 1})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// No designs, single processor, no buses.
	s2 := Synthetic(SyntheticParams{Seed: 2, Apps: 2, Processors: 1})
	if err := s2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSetTopBoxBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SetTopBox()
	}
}

func BenchmarkSyntheticBuild(b *testing.B) {
	p := DefaultSynthetic(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Synthetic(p)
	}
}

// TestGoldenJSON guards the shipped testdata/settop.json against model
// drift: the file must decode to a specification identical to the
// in-code case study.
func TestGoldenJSON(t *testing.T) {
	f, err := os.Open("../../testdata/settop.json")
	if err != nil {
		t.Fatalf("open golden file: %v", err)
	}
	defer f.Close()
	fromFile, err := spec.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	a, err := fromFile.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := SetTopBox().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("testdata/settop.json is out of date; regenerate it from models.SetTopBox")
	}
}

// TestSDRModel validates the second case study's structure.
func TestSDRModel(t *testing.T) {
	s := SDR()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := flex.MaxFlexibility(s.Problem); got != 6 {
		t.Errorf("SDR max flexibility = %v, want 6 (gsm 3 + wifi 2 + bt 1)", got)
	}
	if got := s.Problem.CountVariants(); got != 7 {
		t.Errorf("SDR behaviours = %d, want 7 (4 gsm + 2 wifi + 1 bt)", got)
	}
	units := alloc.Units(s)
	if len(units) != 10 {
		t.Errorf("SDR units = %d, want 10 (3 proc/acc-class + 5 buses + 2 designs)", len(units))
	}
	// The FPGA designs are mutually exclusive at any instant.
	a := spec.NewAllocation("DSP1", "dVit", "dOFDM", "B1")
	n := 0
	a.EnumerateArchSelections(s, func(hgraph.Selection) bool { n++; return true })
	if n != 2 {
		t.Errorf("FPGA configurations = %d, want 2", n)
	}
	if !alloc.Possible(s, spec.NewAllocation("DSP1")) {
		t.Error("{DSP1} must be possible (GSM-FR + BT)")
	}
	if alloc.Possible(s, spec.NewAllocation("ACC", "B2")) {
		t.Error("no processor: impossible")
	}
}

// TestByName: every built-in name builds the same specification as its
// constructor (synthetic under the given seed), and any other name is
// rejected with the list of valid ones.
func TestByName(t *testing.T) {
	cases := []struct {
		name string
		seed int64
		want *spec.Spec
	}{
		{"settop", 0, SetTopBox()},
		{"decoder", 0, Decoder()},
		{"sdr", 0, SDR()},
		{"synthetic", 1, Synthetic(DefaultSynthetic(1))},
		{"synthetic", 7, Synthetic(DefaultSynthetic(7))},
	}
	for _, tc := range cases {
		got, err := ByName(tc.name, tc.seed)
		if err != nil {
			t.Errorf("ByName(%q, %d): %v", tc.name, tc.seed, err)
			continue
		}
		a, err := got.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		b, err := tc.want.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("ByName(%q, %d) differs from its constructor", tc.name, tc.seed)
		}
	}
	for _, name := range []string{"", "nope", "SetTop"} {
		_, err := ByName(name, 1)
		want := `unknown model "` + name + `" (settop | decoder | sdr | synthetic)`
		if err == nil || err.Error() != want {
			t.Errorf("ByName(%q) error = %v, want %q", name, err, want)
		}
	}
}
