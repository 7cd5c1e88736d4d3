package core

import (
	"context"
	"testing"

	"repro/internal/hgraph"
	"repro/internal/models"
	"repro/internal/spec"
)

// TestIncrementalNewStandard plays the paper's §1 incremental-design
// scenario end to end: after the Set-Top boxes ship, a fourth
// decryption standard D4 appears (implementable on the ASICs or, more
// cheaply, on a new FPGA design). Evolving the specification and
// re-exploring upgrades of each deployed box quantifies the cost of the
// new standard per installed platform — with the guarantee that the
// shipped behaviours survive.
func TestIncrementalNewStandard(t *testing.T) {
	s := models.SetTopBox()

	// Evolve the architecture first: the FPGA gains a D4 design. (The
	// architecture graph is also hierarchical; AddCluster works there
	// alike.)
	d4design := &hgraph.Cluster{
		ID: "dD4", Name: "dD4",
		Vertices:    []*hgraph.Vertex{{ID: "D4", Name: "D4", Attrs: hgraph.Attrs{spec.AttrCost: 65}}},
		PortBinding: map[string]hgraph.ID{"bus": "D4"},
	}
	if err := s.Arch.AddCluster("FPGA", d4design); err != nil {
		t.Fatal(err)
	}
	// Then the behaviour: decryption variant γD4.
	d4 := &hgraph.Cluster{
		ID: "gD4", Name: "gD4",
		Vertices: []*hgraph.Vertex{{
			ID: "PD4", Name: "PD4", Attrs: hgraph.Attrs{spec.AttrPeriod: models.TVPeriod},
		}},
		PortBinding: map[string]hgraph.ID{"in": "PD4", "out": "PD4"},
	}
	if err := s.AddBehaviour("ID", d4, []*spec.Mapping{
		{Process: "PD4", Resource: "A1", Latency: 30},
		{Process: "PD4", Resource: "A2", Latency: 28},
		{Process: "PD4", Resource: "D4", Latency: 70},
	}); err != nil {
		t.Fatal(err)
	}

	// The evolved specification has one more cluster and a max
	// flexibility of 9.
	if got := MaxFlexibility(s, Options{}); got != 9 {
		t.Errorf("evolved max flexibility = %v, want 9", got)
	}

	// Upgrading the deployed $100 box to cover D4: cheapest extension
	// adds the D4 design and the FPGA bus.
	up := Run(context.Background(), s, Options{}, Request{Kind: KindUpgrade, Base: spec.NewAllocation("uP2")})
	if len(up.Front) == 0 {
		t.Fatal("upgrades must exist")
	}
	// The cheapest upgrade may still prefer an unrelated variant (D3 is
	// cheaper than D4), but the upgrade path must eventually implement
	// the new standard.
	found := false
	for _, im := range up.Front {
		for _, c := range im.Clusters {
			if c == "gD4" {
				found = true
			}
		}
	}
	if !found {
		t.Error("no upgrade implements the new standard gD4")
	}

	// Full re-exploration: the evolved front's maximum reaches f=9.
	r := Explore(s, Options{})
	last := r.Front[len(r.Front)-1]
	if last.Flexibility != 9 {
		t.Errorf("evolved front max f = %v, want 9", last.Flexibility)
	}
}

// TestEvolveRollbacks: invalid evolutions leave the specification
// untouched.
func TestEvolveRollbacks(t *testing.T) {
	s := models.SetTopBox()
	before := len(s.Mappings)

	// Unknown interface.
	err := s.AddBehaviour("NOPE", &hgraph.Cluster{ID: "x"}, nil)
	if err == nil {
		t.Error("unknown interface must fail")
	}
	// Duplicate cluster ID.
	err = s.AddBehaviour("ID", &hgraph.Cluster{ID: "gD1"}, nil)
	if err == nil {
		t.Error("duplicate cluster ID must fail")
	}
	// Invalid mapping (unknown resource) must roll back the cluster.
	bad := &hgraph.Cluster{
		ID: "gDx", Vertices: []*hgraph.Vertex{{ID: "PDx"}},
		PortBinding: map[string]hgraph.ID{"in": "PDx", "out": "PDx"},
	}
	err = s.AddBehaviour("ID", bad, []*spec.Mapping{{Process: "PDx", Resource: "GHOST"}})
	if err == nil {
		t.Error("unknown resource must fail")
	}
	if s.Problem.ClusterByID("gDx") != nil {
		t.Error("failed evolution left the cluster behind")
	}
	if len(s.Mappings) != before {
		t.Error("failed evolution changed the mappings")
	}
	if err := s.Validate(); err != nil {
		t.Errorf("spec corrupted: %v", err)
	}
	// The front is unchanged.
	r := Explore(s, Options{})
	if len(r.Front) != 6 {
		t.Errorf("front size = %d after rollbacks, want 6", len(r.Front))
	}
}

// TestRemoveBehaviour: discontinuing a variant lowers flexibility and
// removes its mappings.
func TestRemoveBehaviour(t *testing.T) {
	s := models.SetTopBox()
	if err := s.RemoveBehaviour("gD3"); err != nil {
		t.Fatal(err)
	}
	if s.Problem.ClusterByID("gD3") != nil {
		t.Error("gD3 still present")
	}
	if len(s.MappingsFor("PD3")) != 0 {
		t.Error("PD3 mappings survived")
	}
	if got := MaxFlexibility(s, Options{}); got != 7 {
		t.Errorf("max flexibility without gD3 = %v, want 7", got)
	}
	// Removing the last uncompression cluster chain is rejected at one
	// remaining cluster.
	if err := s.RemoveBehaviour("gU1"); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveBehaviour("gU2"); err == nil {
		t.Error("removing the last cluster of IU must fail")
	}
	if err := s.RemoveBehaviour("nope"); err == nil {
		t.Error("unknown cluster must fail")
	}
}
