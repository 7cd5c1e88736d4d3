package flex

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/hgraph"
	"repro/internal/hgraph/hgraphtest"
	"repro/internal/spec"
)

// buildFig3 constructs the problem graph of Fig. 3: a Set-Top box family
// whose top-level application interface is refined by an Internet
// browser, a game console (with three game-class alternatives) and a
// digital TV decoder (with three decryption and two uncompression
// alternatives).
func buildFig3(t testing.TB) *hgraph.Graph {
	t.Helper()
	b := hgraph.NewBuilder("fig3", "GP")
	app := b.Root().Interface("IApp")

	gI := app.Cluster("gI")
	gI.Vertex("PCI").Vertex("PP").Vertex("PF")
	gI.Edge("PCI", "PP").Edge("PP", "PF")

	gG := app.Cluster("gG")
	gG.Vertex("PCG").Vertex("PD")
	ig := gG.Interface("IG", hgraph.Port{Name: "in"}, hgraph.Port{Name: "out", Dir: hgraph.Out})
	ig.Cluster("gG1").Vertex("PG1").Bind("in", "PG1").Bind("out", "PG1")
	ig.Cluster("gG2").Vertex("PG2").Bind("in", "PG2").Bind("out", "PG2")
	ig.Cluster("gG3").Vertex("PG3").Bind("in", "PG3").Bind("out", "PG3")
	gG.PortEdge("PCG", "", "IG", "in")
	gG.PortEdge("IG", "out", "PD", "")

	gD := app.Cluster("gD")
	gD.Vertex("PA").Vertex("PCD")
	id := gD.Interface("ID", hgraph.Port{Name: "in"}, hgraph.Port{Name: "out", Dir: hgraph.Out})
	id.Cluster("gD1").Vertex("PD1").Bind("in", "PD1").Bind("out", "PD1")
	id.Cluster("gD2").Vertex("PD2").Bind("in", "PD2").Bind("out", "PD2")
	id.Cluster("gD3").Vertex("PD3").Bind("in", "PD3").Bind("out", "PD3")
	iu := gD.Interface("IU", hgraph.Port{Name: "in"}, hgraph.Port{Name: "out", Dir: hgraph.Out})
	iu.Cluster("gU1").Vertex("PU1").Bind("in", "PU1").Bind("out", "PU1")
	iu.Cluster("gU2").Vertex("PU2").Bind("in", "PU2").Bind("out", "PU2")
	gD.PortEdge("PCD", "", "ID", "in")
	gD.PortEdge("ID", "out", "IU", "in")

	return b.MustBuild()
}

// TestFig3Flexibility reproduces the paper's worked example: with all
// clusters activatable f(G_P) = 8 (the maximum); without the game
// cluster γ_G the flexibility drops to 5.
func TestFig3Flexibility(t *testing.T) {
	g := buildFig3(t)
	if got := MaxFlexibility(g); got != 8 {
		t.Errorf("max flexibility = %v, want 8", got)
	}
	if got := Flexibility(g, Except(AllActive, "gG")); got != 5 {
		t.Errorf("flexibility without gG = %v, want 5", got)
	}
}

func TestFlexibilityPartialActivations(t *testing.T) {
	g := buildFig3(t)
	cases := []struct {
		name     string
		excluded []hgraph.ID
		want     float64
	}{
		{"all", nil, 8},
		{"no browser", []hgraph.ID{"gI"}, 7},
		{"single game class", []hgraph.ID{"gG2", "gG3"}, 6},
		{"one decryption one uncompression", []hgraph.ID{"gD2", "gD3", "gU2"}, 1 + 3 + 1},
		{"no uncompression kills TV", []hgraph.ID{"gU1", "gU2"}, 1 + 3},
		{"no game classes kills console", []hgraph.ID{"gG1", "gG2", "gG3"}, 1 + 4},
		{"root inactive", []hgraph.ID{"GP"}, 0},
		{"everything but browser", []hgraph.ID{"gG", "gD"}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Flexibility(g, Except(AllActive, tc.excluded...)); got != tc.want {
				t.Errorf("flexibility = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestInterfaceAndClusterFlexibility(t *testing.T) {
	g := buildFig3(t)
	if got := InterfaceFlexibility(g.InterfaceByID("ID"), AllActive); got != 3 {
		t.Errorf("f(I_D) = %v, want 3", got)
	}
	if got := InterfaceFlexibility(g.InterfaceByID("IApp"), AllActive); got != 8 {
		t.Errorf("f(I_App) = %v, want 8", got)
	}
	if got := ClusterFlexibility(g.ClusterByID("gD"), AllActive); got != 4 {
		t.Errorf("f(γ_D) = %v, want 4 (3+2-1)", got)
	}
	if got := ClusterFlexibility(g.ClusterByID("gI"), AllActive); got != 1 {
		t.Errorf("f(γ_I) = %v, want 1", got)
	}
	if got := ClusterFlexibility(g.ClusterByID("gD"), Except(AllActive, "gD")); got != 0 {
		t.Errorf("f of deactivated cluster = %v, want 0", got)
	}
}

func TestFromSet(t *testing.T) {
	g := buildFig3(t)
	active := map[hgraph.ID]bool{"GP": true, "gI": true}
	if got := Flexibility(g, FromSet(active)); got != 1 {
		t.Errorf("FromSet flexibility = %v, want 1", got)
	}
}

func TestWeightedFlexibility(t *testing.T) {
	g := buildFig3(t)
	// All weights default to 1: identical to the unweighted metric.
	if got := WeightedFlexibility(g, AllActive); got != 8 {
		t.Errorf("weighted (all-1) = %v, want 8", got)
	}
	// Doubling the browser's weight raises the total by 1.
	g.ClusterByID("gI").Attrs = hgraph.Attrs{spec.AttrWeight: 2}
	if got := WeightedFlexibility(g, AllActive); got != 9 {
		t.Errorf("weighted (browser x2) = %v, want 9", got)
	}
	// Halving a game class weight lowers the game interface sum.
	g.ClusterByID("gG1").Attrs = hgraph.Attrs{spec.AttrWeight: 0.5}
	if got := WeightedFlexibility(g, AllActive); got != 8.5 {
		t.Errorf("weighted (game1 x0.5) = %v, want 8.5", got)
	}
}

func TestActivatableClusters(t *testing.T) {
	g := buildFig3(t)
	// Deactivating all decryption clusters makes gD unactivatable and
	// with it the uncompression clusters below it.
	act := Except(AllActive, "gD1", "gD2", "gD3")
	set := ActivatableClusters(g, act)
	for _, id := range []hgraph.ID{"gD", "gD1", "gU1", "gU2"} {
		if set[id] {
			t.Errorf("%s should not be activatable", id)
		}
	}
	for _, id := range []hgraph.ID{"GP", "gI", "gG", "gG1"} {
		if !set[id] {
			t.Errorf("%s should be activatable", id)
		}
	}
}

func TestActivatableClustersRootInactive(t *testing.T) {
	g := buildFig3(t)
	set := ActivatableClusters(g, Except(AllActive, "GP"))
	if len(set) != 0 {
		t.Errorf("inactive root should yield empty set, got %v", set)
	}
}

// Property: normalizing an activation through ActivatableClusters does
// not change the flexibility value (the guard in clusterFlex encodes
// exactly the same rule).
func TestPropNormalizationInvariant(t *testing.T) {
	prop := func(seed int64) bool {
		g := hgraphtest.Random(seed%500, hgraphtest.Options{})
		raw := hgraphtest.RandomActivation(g, seed, 0.7)
		act := FromSet(raw)
		norm := FromSet(ActivatableClusters(g, act))
		return Flexibility(g, act) == Flexibility(g, norm)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: flexibility is monotone — activating more clusters never
// decreases flexibility.
func TestPropMonotonicity(t *testing.T) {
	prop := func(seed int64) bool {
		g := hgraphtest.Random(seed%500, hgraphtest.Options{})
		small := hgraphtest.RandomActivation(g, seed, 0.5)
		big := map[hgraph.ID]bool{}
		for k, v := range small {
			big[k] = v
		}
		// activate some extra clusters deterministically
		extra := hgraphtest.RandomActivation(g, seed+1, 0.5)
		for k, v := range extra {
			if v {
				big[k] = true
			}
		}
		return Flexibility(g, FromSet(big)) >= Flexibility(g, FromSet(small))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: maximum flexibility is bounded below by 1 for graphs whose
// every interface has clusters (always true by construction) and above
// by the number of leaf clusters (clusters without interfaces).
func TestPropMaxFlexibilityBounds(t *testing.T) {
	prop := func(seed int64) bool {
		g := hgraphtest.Random(seed%500, hgraphtest.Options{})
		f := MaxFlexibility(g)
		if f < 1 {
			return false
		}
		leafClusters := 0
		for _, c := range g.Clusters() {
			if len(c.Interfaces) == 0 {
				leafClusters++
			}
		}
		if leafClusters == 0 {
			leafClusters = 1 // root without interfaces
		}
		return f <= float64(leafClusters)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: weighted flexibility with all weights 1 equals unweighted.
func TestPropWeightedDefaultsToUnweighted(t *testing.T) {
	prop := func(seed int64) bool {
		g := hgraphtest.Random(seed%500, hgraphtest.Options{})
		act := FromSet(hgraphtest.RandomActivation(g, seed, 0.8))
		return WeightedFlexibility(g, act) == Flexibility(g, act)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the dense Indexed layout evaluates Definition 4 to the same
// bits as the graph walk, weighted (with fractional weights) and
// unweighted.
func TestPropIndexedMatchesGraph(t *testing.T) {
	prop := func(seed int64) bool {
		g := hgraphtest.Random(seed%500, hgraphtest.Options{})
		var ids []hgraph.ID
		for i, c := range g.Clusters() {
			ids = append(ids, c.ID)
			if (seed+int64(i))%3 == 0 {
				c.Attrs = hgraph.Attrs{spec.AttrWeight: 0.1 * float64(i%7+1)}
			}
		}
		ix := bitset.NewIndexer(ids)
		x := NewIndexed(g, ix)
		raw := hgraphtest.RandomActivation(g, seed, 0.7)
		set := bitset.New(ix.Len())
		for id, on := range raw {
			if i, _ := ix.Index(id); on {
				set.Add(i)
			}
		}
		act := FromSet(raw)
		return math.Float64bits(x.Flexibility(set)) == math.Float64bits(Flexibility(g, act)) &&
			math.Float64bits(x.WeightedFlexibility(set)) == math.Float64bits(WeightedFlexibility(g, act))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the Indexed layout's Activatable marks exactly the clusters
// ActivatableClusters returns, on scratch reused across queries.
func TestPropIndexedActivatableMatchesGraph(t *testing.T) {
	prop := func(seed int64) bool {
		g := hgraphtest.Random(seed%500, hgraphtest.Options{})
		var ids []hgraph.ID
		for _, c := range g.Clusters() {
			ids = append(ids, c.ID)
		}
		ix := bitset.NewIndexer(ids)
		x := NewIndexed(g, ix)
		out, memo := bitset.New(ix.Len()), make([]int8, ix.Len())
		for k := int64(0); k < 3; k++ {
			raw := hgraphtest.RandomActivation(g, seed+k, 0.7)
			set := bitset.New(ix.Len())
			for id, on := range raw {
				if i, _ := ix.Index(id); on {
					set.Add(i)
				}
			}
			x.Activatable(set, out, memo)
			want := ActivatableClusters(g, FromSet(raw))
			if out.Count() != len(want) {
				return false
			}
			for id := range want {
				if i, _ := ix.Index(id); !out.Has(i) {
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

func BenchmarkFlexibilityFig3(b *testing.B) {
	g := buildFig3(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if MaxFlexibility(g) != 8 {
			b.Fatal("wrong flexibility")
		}
	}
}

func BenchmarkActivatableClusters(b *testing.B) {
	g := hgraphtest.Random(11, hgraphtest.Options{MaxDepth: 4})
	act := FromSet(hgraphtest.RandomActivation(g, 3, 0.8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ActivatableClusters(g, act)
	}
}
