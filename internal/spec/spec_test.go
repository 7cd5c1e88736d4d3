package spec

import (
	"math"
	"strings"
	"testing"

	"repro/internal/hgraph"
)

// buildMini constructs a reduced Fig. 2-style specification: a decoder
// problem graph (controller, authentification, decryption interface
// with two alternatives, uncompression interface with one alternative)
// over an architecture with a processor, an ASIC, two buses, and an
// FPGA interface with two alternative designs. There is deliberately no
// bus between the ASIC and the FPGA (the paper's infeasible-binding
// example).
func buildMini(t testing.TB) *Spec {
	t.Helper()

	pb := hgraph.NewBuilder("problem", "ptop")
	r := pb.Root()
	r.Vertex("PA").Vertex("PC")
	ifD := r.Interface("IfD", hgraph.Port{Name: "in"}, hgraph.Port{Name: "out", Dir: hgraph.Out})
	ifD.Cluster("gD1").Vertex("PD1", AttrPeriod, 300).Bind("in", "PD1").Bind("out", "PD1")
	ifD.Cluster("gD2").Vertex("PD2", AttrPeriod, 300).Bind("in", "PD2").Bind("out", "PD2")
	ifU := r.Interface("IfU", hgraph.Port{Name: "in"}, hgraph.Port{Name: "out", Dir: hgraph.Out})
	ifU.Cluster("gU1").Vertex("PU1", AttrPeriod, 300).Bind("in", "PU1").Bind("out", "PU1")
	r.PortEdge("PC", "", "IfD", "in")
	r.PortEdge("IfD", "out", "IfU", "in")
	problem := pb.MustBuild()

	ab := hgraph.NewBuilder("arch", "atop")
	ar := ab.Root()
	ar.Vertex("uP", AttrCost, 50)
	ar.Vertex("A", AttrCost, 100)
	ar.Vertex("C1", AttrCost, 5, AttrComm, 1)
	ar.Vertex("C2", AttrCost, 5, AttrComm, 1)
	fpga := ar.Interface("FPGA", hgraph.Port{Name: "bus"})
	fpga.Cluster("dD3").Vertex("D3", AttrCost, 20).Bind("bus", "D3")
	fpga.Cluster("dU2").Vertex("U2", AttrCost, 20).Bind("bus", "U2")
	ar.Edge("uP", "C1")
	ar.PortEdge("C1", "", "FPGA", "bus")
	ar.Edge("uP", "C2")
	ar.Edge("C2", "A")
	arch := ab.MustBuild()

	mappings := []*Mapping{
		{Process: "PA", Resource: "uP", Latency: 55},
		{Process: "PC", Resource: "uP", Latency: 10},
		{Process: "PD1", Resource: "uP", Latency: 85},
		{Process: "PD1", Resource: "A", Latency: 25},
		{Process: "PD2", Resource: "A", Latency: 35},
		{Process: "PD2", Resource: "D3", Latency: 63},
		{Process: "PU1", Resource: "uP", Latency: 40},
		{Process: "PU1", Resource: "A", Latency: 15},
		{Process: "PU1", Resource: "U2", Latency: 59},
	}
	return MustNew("mini", problem, arch, mappings)
}

func TestValidateRejections(t *testing.T) {
	s := buildMini(t)
	cases := []struct {
		name string
		ms   []*Mapping
	}{
		{"unknown process", []*Mapping{{Process: "nope", Resource: "uP"}}},
		{"unknown resource", []*Mapping{{Process: "PA", Resource: "nope"}}},
		{"interface as process", []*Mapping{{Process: "IfD", Resource: "uP"}}},
		{"duplicate", []*Mapping{{Process: "PA", Resource: "uP"}, {Process: "PA", Resource: "uP"}}},
		{"negative latency", []*Mapping{{Process: "PA", Resource: "uP", Latency: -1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New("bad", s.Problem, s.Arch, tc.ms); err == nil {
				t.Errorf("New accepted %s", tc.name)
			}
		})
	}
	if _, err := New("bad", nil, s.Arch, nil); err == nil {
		t.Error("New accepted nil problem graph")
	}
}

func TestMappingLookups(t *testing.T) {
	s := buildMini(t)
	if got := len(s.MappingsFor("PD1")); got != 2 {
		t.Errorf("MappingsFor(PD1) = %d entries, want 2", got)
	}
	rs := s.ReachableResources("PD1")
	if len(rs) != 2 || rs[0] != "A" || rs[1] != "uP" {
		t.Errorf("ReachableResources(PD1) = %v, want [A uP]", rs)
	}
	if m := s.Mapping("PU1", "A"); m == nil || m.Latency != 15 {
		t.Errorf("Mapping(PU1,A) = %v, want latency 15", m)
	}
	if m := s.Mapping("PU1", "D3"); m != nil {
		t.Errorf("Mapping(PU1,D3) = %v, want nil", m)
	}
	if got := len(s.MappingsOnto("uP")); got != 4 {
		t.Errorf("MappingsOnto(uP) = %d entries, want 4", got)
	}
	if got := s.ReachableResources("unmapped"); len(got) != 0 {
		t.Errorf("ReachableResources(unmapped) = %v, want empty", got)
	}
}

func TestAttributeAccessors(t *testing.T) {
	s := buildMini(t)
	if !s.IsComm("C1") || s.IsComm("uP") || s.IsComm("nope") {
		t.Error("IsComm misbehaves")
	}
	if got := s.Period("PD1"); got != 300 {
		t.Errorf("Period(PD1) = %v, want 300", got)
	}
	if got := s.Period("PA"); got != 0 {
		t.Errorf("Period(PA) = %v, want 0 (untimed)", got)
	}
	if got := s.ResourceCost("A"); got != 100 {
		t.Errorf("ResourceCost(A) = %v, want 100", got)
	}
	if got := s.ResourceCost("dD3"); got != 0 {
		// cluster itself carries no cost attr; cost sits on D3
		t.Errorf("ResourceCost(dD3) = %v, want 0", got)
	}
	if got := s.ResourceCost("ghost"); got != 0 {
		t.Errorf("ResourceCost(ghost) = %v, want 0", got)
	}
}

func TestVertexCount(t *testing.T) {
	s := buildMini(t)
	// problem: 5 vertices + 2 interfaces + 3 clusters = 10
	// arch: 6 vertices + 1 interface + 2 clusters = 9
	if got := s.VertexCount(); got != 19 {
		t.Errorf("VertexCount = %d, want 19", got)
	}
}

func TestAllocationBasics(t *testing.T) {
	s := buildMini(t)
	a := NewAllocation("uP", "C1", "dD3")
	if got := a.Cost(s); got != 75 {
		t.Errorf("Cost = %v, want 50+5+20 = 75", got)
	}
	rs := a.Resources(s)
	want := []hgraph.ID{"C1", "D3", "uP"}
	if len(rs) != len(want) {
		t.Fatalf("Resources = %v, want %v", rs, want)
	}
	for i := range want {
		if rs[i] != want[i] {
			t.Errorf("Resources[%d] = %s, want %s", i, rs[i], want[i])
		}
	}
	if a.String() != "{C1 dD3 uP}" {
		t.Errorf("String = %s", a.String())
	}
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clone not equal")
	}
	delete(b, "C1")
	if a.Equal(b) || !b.Subset(a) || a.Subset(b) {
		t.Error("Equal/Subset misbehave")
	}
	if len(a.IDs()) != 3 {
		t.Errorf("IDs = %v", a.IDs())
	}
}

func TestAllocationClusterCost(t *testing.T) {
	// A cluster with its own cost attribute adds it on top of contained
	// resource costs.
	ab := hgraph.NewBuilder("arch", "t")
	fpga := ab.Root().Interface("F", hgraph.Port{Name: "p"})
	fpga.Cluster("d1").Attr(AttrCost, 7).Vertex("r1", AttrCost, 3).Bind("p", "r1")
	arch := ab.MustBuild()
	pb := hgraph.NewBuilder("problem", "pt")
	pb.Root().Vertex("x")
	prob := pb.MustBuild()
	s := MustNew("c", prob, arch, []*Mapping{{Process: "x", Resource: "r1"}})
	if got := NewAllocation("d1").Cost(s); got != 10 {
		t.Errorf("cluster cost = %v, want 10", got)
	}
}

// TestAllocationCostDeterministic: fractional costs sum to one bit
// pattern on every call, whatever order the map iterates in.
func TestAllocationCostDeterministic(t *testing.T) {
	ab := hgraph.NewBuilder("arch", "t")
	ab.Root().Vertex("r1", AttrCost, 0.1).Vertex("r2", AttrCost, 0.2).Vertex("r3", AttrCost, 0.3)
	arch := ab.MustBuild()
	pb := hgraph.NewBuilder("problem", "pt")
	pb.Root().Vertex("x")
	prob := pb.MustBuild()
	s := MustNew("frac", prob, arch, []*Mapping{{Process: "x", Resource: "r1"}})
	a := NewAllocation("r1", "r2", "r3")
	want := math.Float64bits(a.Cost(s))
	for i := 0; i < 200; i++ {
		if got := math.Float64bits(a.Cost(s)); got != want {
			t.Fatalf("call %d: Cost = %v, first call %v", i, math.Float64frombits(got), math.Float64frombits(want))
		}
	}
}

func TestEnumerateArchSelections(t *testing.T) {
	s := buildMini(t)
	count := func(a Allocation) int {
		n := 0
		a.EnumerateArchSelections(s, func(hgraph.Selection) bool { n++; return true })
		return n
	}
	if got := count(NewAllocation("uP")); got != 1 {
		t.Errorf("no FPGA design allocated: %d selections, want 1 (FPGA inactive)", got)
	}
	if got := count(NewAllocation("uP", "dD3")); got != 1 {
		t.Errorf("one design: %d selections, want 1", got)
	}
	if got := count(NewAllocation("uP", "dD3", "dU2")); got != 2 {
		t.Errorf("two designs: %d selections, want 2", got)
	}
	// early stop
	n := 0
	NewAllocation("uP", "dD3", "dU2").EnumerateArchSelections(s, func(hgraph.Selection) bool {
		n++
		return false
	})
	if n != 1 {
		t.Errorf("early stop enumerated %d, want 1", n)
	}
}

func TestArchViewCommunication(t *testing.T) {
	s := buildMini(t)

	// uP and A connected via bus C2.
	a := NewAllocation("uP", "A", "C2")
	av, err := s.ArchViewFor(a, hgraph.Selection{})
	if err != nil {
		t.Fatal(err)
	}
	if !av.CanCommunicate("uP", "A") {
		t.Error("uP<->A via C2 should communicate")
	}
	if !av.CanCommunicate("uP", "uP") {
		t.Error("same resource should communicate")
	}

	// Without the bus they cannot.
	a2 := NewAllocation("uP", "A")
	av2, err := s.ArchViewFor(a2, hgraph.Selection{})
	if err != nil {
		t.Fatal(err)
	}
	if av2.CanCommunicate("uP", "A") {
		t.Error("uP<->A without bus must not communicate")
	}

	// FPGA design D3 reachable from uP via C1 (edge rerouted through the
	// FPGA interface port binding).
	a3 := NewAllocation("uP", "C1", "dD3")
	av3, err := s.ArchViewFor(a3, hgraph.Selection{"FPGA": "dD3"})
	if err != nil {
		t.Fatal(err)
	}
	if !av3.CanCommunicate("uP", "D3") {
		t.Error("uP<->D3 via C1 should communicate")
	}
	if !av3.Present("D3") || av3.Present("U2") || av3.Present("A") {
		t.Error("presence filtering wrong")
	}

	// The paper's infeasible example: no bus between ASIC and FPGA.
	a4 := NewAllocation("uP", "A", "C1", "C2", "dD3")
	av4, err := s.ArchViewFor(a4, hgraph.Selection{"FPGA": "dD3"})
	if err != nil {
		t.Fatal(err)
	}
	if av4.CanCommunicate("A", "D3") {
		t.Error("A<->D3 must not communicate (no shared bus)")
	}
	if !av4.CanCommunicate("uP", "A") || !av4.CanCommunicate("uP", "D3") {
		t.Error("uP must reach both A and D3")
	}

	// Unallocated endpoint never communicates.
	if av3.CanCommunicate("uP", "A") || av3.CanCommunicate("A", "A") {
		t.Error("absent resources must not communicate")
	}
}

// TestArchViewForSelections: a selection naming a cluster its interface
// does not have is refused, as FlattenPartial refuses it, and entries
// for interfaces no flattening reaches are ignored.
func TestArchViewForSelections(t *testing.T) {
	s := buildMini(t)
	a := NewAllocation("uP", "C1", "dD3")
	if _, err := s.ArchViewFor(a, hgraph.Selection{"FPGA": "nope"}); err == nil {
		t.Error("an unknown selected cluster must fail")
	}
	if _, err := s.ArchViewFor(a, hgraph.Selection{"FPGA": "gD1"}); err == nil {
		t.Error("a cluster of another graph's interface must fail")
	}
	av, err := s.ArchViewFor(a, hgraph.Selection{"FPGA": "dD3", "NOSUCH": "x"})
	if err != nil {
		t.Fatal(err)
	}
	if !av.CanCommunicate("uP", "D3") {
		t.Error("uP<->D3 via C1 should communicate")
	}
}

func TestArchViewAdjacencyAndResources(t *testing.T) {
	s := buildMini(t)
	a := NewAllocation("uP", "A", "C2")
	av, err := s.ArchViewFor(a, hgraph.Selection{})
	if err != nil {
		t.Fatal(err)
	}
	if !av.Adjacent("uP", "C2") || !av.Adjacent("C2", "uP") {
		t.Error("bus adjacency should be symmetric")
	}
	if av.Adjacent("uP", "A") {
		t.Error("uP-A are not directly adjacent")
	}
	rs := av.PresentResources()
	if len(rs) != 3 {
		t.Errorf("PresentResources = %v, want 3 entries", rs)
	}
}

func TestJSONDecodeErrors(t *testing.T) {
	cases := []string{
		`{`, // malformed
		`{"name":"x","problem":{"root":{"id":"p","vertices":[{"id":"a"},{"id":"a"}]}},"arch":{"root":{"id":"t"}}}`,                                                          // dup vertex
		`{"name":"x","problem":{"root":{"id":"p","vertices":[{"id":"a"}]}},"arch":{"root":{"id":"t","vertices":[{"id":"r"}]}},"mappings":[{"process":"z","resource":"r"}]}`, // unknown process
	}
	for i, c := range cases {
		s := &Spec{}
		if err := s.UnmarshalJSON([]byte(c)); err == nil {
			t.Errorf("case %d: UnmarshalJSON accepted invalid input", i)
		}
	}
}

func TestSpecClone(t *testing.T) {
	s := buildMini(t)
	c := s.Clone()
	c.Mappings[0].Latency = 999
	if s.Mappings[0].Latency == 999 {
		t.Error("clone shares mapping storage")
	}
	if c.VertexCount() != s.VertexCount() {
		t.Error("clone counts differ")
	}
}

func BenchmarkArchViewFor(b *testing.B) {
	s := buildMini(b)
	a := NewAllocation("uP", "A", "C1", "C2", "dD3")
	sel := hgraph.Selection{"FPGA": "dD3"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.ArchViewFor(a, sel); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJSONRoundTrip(b *testing.B) {
	s := buildMini(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := s.MarshalJSON()
		if err != nil {
			b.Fatal(err)
		}
		out := &Spec{}
		if err := out.UnmarshalJSON(data); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSummary(t *testing.T) {
	s := buildMini(t)
	got := s.Summary()
	for _, frag := range []string{`spec "mini"`, "5 processes (3 timed)", "2 behaviour variants", "2 buses", "9 mapping edges"} {
		if !strings.Contains(got, frag) {
			t.Errorf("Summary lacks %q:\n%s", frag, got)
		}
	}
}

// TestUnmarshalJSONGraphErrors pins the exact message for a bad problem
// graph, a bad architecture graph, and both at once (the problem graph
// is reported first).
func TestUnmarshalJSONGraphErrors(t *testing.T) {
	cases := []struct{ name, in, want string }{
		{
			"problem",
			`{"name":"x","problem":{"root":{"id":"p","vertices":[{"id":"a"},{"id":"a"}]}},"arch":{"root":{"id":"t","vertices":[{"id":"r"}]}}}`,
			`spec "x": problem graph: hgraph "x.problem": 1 problem(s): duplicate ID "a" (vertex and vertex)`,
		},
		{
			"architecture",
			`{"name":"x","problem":{"root":{"id":"p","vertices":[{"id":"a"}]}},"arch":{"root":{"id":"t","vertices":[{"id":"r"}],"edges":[{"from":"r","to":"q"}]}}}`,
			`spec "x": architecture graph: hgraph "x.arch": 1 problem(s): edge "t:e0:r->q": target "q" is not a node of cluster "t"`,
		},
		{
			"both",
			`{"name":"x","problem":{"root":{"id":"p","vertices":[{"id":"a"},{"id":"a"}]}},"arch":{"root":{"id":"t","vertices":[{"id":"r"}],"edges":[{"from":"r","to":"q"}]}}}`,
			`spec "x": problem graph: hgraph "x.problem": 1 problem(s): duplicate ID "a" (vertex and vertex)`,
		},
	}
	for _, c := range cases {
		err := (&Spec{}).UnmarshalJSON([]byte(c.in))
		if err == nil {
			t.Errorf("%s: UnmarshalJSON accepted an invalid graph", c.name)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("%s: error\n  %s\nwant\n  %s", c.name, err, c.want)
		}
	}
}
