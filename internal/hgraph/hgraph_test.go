package hgraph

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// buildDecoder constructs the digital TV decoder of Fig. 1: top-level
// vertices P_A (authentification) and P_C (controller), an interface
// I_D with three alternative decryption clusters and an interface I_U
// with two alternative uncompression clusters, where uncompression
// consumes the output of decryption.
func buildDecoder(t testing.TB) *Graph {
	t.Helper()
	b := NewBuilder("fig1", "top")
	r := b.Root()
	r.Vertex("PA").Vertex("PC")
	ifD := r.Interface("ID", Port{Name: "in", Dir: In}, Port{Name: "out", Dir: Out})
	for k := 1; k <= 3; k++ {
		id := ID(fmt.Sprintf("gD%d", k))
		pd := ID(fmt.Sprintf("PD%d", k))
		ifD.Cluster(id).Vertex(pd).Bind("in", pd).Bind("out", pd)
	}
	ifU := r.Interface("IU", Port{Name: "in", Dir: In}, Port{Name: "out", Dir: Out})
	for k := 1; k <= 2; k++ {
		id := ID(fmt.Sprintf("gU%d", k))
		pu := ID(fmt.Sprintf("PU%d", k))
		ifU.Cluster(id).Vertex(pu).Bind("in", pu).Bind("out", pu)
	}
	r.PortEdge("PC", "", "ID", "in")
	r.PortEdge("ID", "out", "IU", "in")
	g, err := b.Build()
	if err != nil {
		t.Fatalf("build decoder: %v", err)
	}
	return g
}

func TestFig1Leaves(t *testing.T) {
	g := buildDecoder(t)
	leaves := g.Leaves()
	want := []ID{"PA", "PC", "PD1", "PD2", "PD3", "PU1", "PU2"}
	if len(leaves) != len(want) {
		t.Fatalf("got %d leaves, want %d", len(leaves), len(want))
	}
	for i, w := range want {
		if leaves[i].ID != w {
			t.Errorf("leaf %d = %s, want %s", i, leaves[i].ID, w)
		}
	}
}

func TestElementCount(t *testing.T) {
	g := buildDecoder(t)
	v, i, c, e := g.ElementCount()
	if v != 7 {
		t.Errorf("vertices = %d, want 7", v)
	}
	if i != 2 {
		t.Errorf("interfaces = %d, want 2", i)
	}
	if c != 5 {
		t.Errorf("clusters = %d, want 5", c)
	}
	if e != 2 {
		t.Errorf("edges = %d, want 2", e)
	}
}

func TestCountVariants(t *testing.T) {
	g := buildDecoder(t)
	if got := g.CountVariants(); got != 6 {
		t.Errorf("CountVariants = %d, want 3*2 = 6", got)
	}
}

func TestSelectionsEnumeration(t *testing.T) {
	g := buildDecoder(t)
	var sels []Selection
	g.EnumerateSelections(func(s Selection) bool {
		sels = append(sels, s.Clone())
		return true
	})
	if len(sels) != 6 {
		t.Fatalf("got %d selections, want 6", len(sels))
	}
	seen := map[string]bool{}
	for _, s := range sels {
		if !g.Complete(s) {
			t.Errorf("selection %v incomplete", s)
		}
		if seen[s.String()] {
			t.Errorf("duplicate selection %v", s)
		}
		seen[s.String()] = true
	}
}

func TestEnumerateSelectionsEarlyStop(t *testing.T) {
	g := buildDecoder(t)
	n := 0
	g.EnumerateSelections(func(Selection) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("enumerated %d selections after early stop, want 3", n)
	}
}

func TestFlattenReroutesPorts(t *testing.T) {
	g := buildDecoder(t)
	sel := Selection{"ID": "gD2", "IU": "gU1"}
	fg, err := g.Flatten(sel)
	if err != nil {
		t.Fatalf("flatten: %v", err)
	}
	if len(fg.Vertices) != 4 {
		t.Fatalf("flat vertices = %d, want 4 (PA, PC, PD2, PU1)", len(fg.Vertices))
	}
	wantEdges := map[string]bool{"PC->PD2": true, "PD2->PU1": true}
	for _, e := range fg.Edges {
		key := string(e.From) + "->" + string(e.To)
		if !wantEdges[key] {
			t.Errorf("unexpected flat edge %s", key)
		}
		delete(wantEdges, key)
	}
	for k := range wantEdges {
		t.Errorf("missing flat edge %s", k)
	}
}

func TestFlattenIncompleteSelection(t *testing.T) {
	g := buildDecoder(t)
	if _, err := g.Flatten(Selection{"ID": "gD1"}); err == nil {
		t.Error("flatten with incomplete selection should fail")
	}
	if _, err := g.Flatten(Selection{"ID": "gD1", "IU": "nope"}); err == nil {
		t.Error("flatten with unknown cluster should fail")
	}
}

func TestActiveClusters(t *testing.T) {
	g := buildDecoder(t)
	got := g.ActiveClusters(Selection{"ID": "gD1", "IU": "gU2"})
	want := []ID{"gD1", "gU2", "top"}
	if len(got) != len(want) {
		t.Fatalf("ActiveClusters = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ActiveClusters[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestLookupAndParents(t *testing.T) {
	g := buildDecoder(t)
	if g.VertexByID("PD2") == nil {
		t.Error("VertexByID(PD2) = nil")
	}
	if g.InterfaceByID("ID") == nil {
		t.Error("InterfaceByID(ID) = nil")
	}
	if g.ClusterByID("gU2") == nil {
		t.Error("ClusterByID(gU2) = nil")
	}
	if p := g.ParentCluster("PD2"); p == nil || p.ID != "gD2" {
		t.Errorf("ParentCluster(PD2) = %v, want gD2", p)
	}
	if o := g.OwnerInterface("gD2"); o == nil || o.ID != "ID" {
		t.Errorf("OwnerInterface(gD2) = %v, want ID", o)
	}
	if g.OwnerInterface("top") != nil {
		t.Error("OwnerInterface(top) should be nil")
	}
	if !g.Has("PA") || !g.Has("ID") || !g.Has("gD1") || g.Has("nope") {
		t.Error("Has misbehaves")
	}
}

func TestDepth(t *testing.T) {
	g := buildDecoder(t)
	if d := g.Depth(); d != 1 {
		t.Errorf("Depth = %d, want 1", d)
	}
	flat := MustNew("flat", &Cluster{ID: "r", Vertices: []*Vertex{{ID: "a"}}})
	if d := flat.Depth(); d != 0 {
		t.Errorf("flat Depth = %d, want 0", d)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := buildDecoder(t)
	c := g.Clone()
	if err := c.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	c.Root.Vertices[0].ID = "mutated"
	c.Root.Vertices[0].Attrs = Attrs{"x": 1}
	if g.Root.Vertices[0].ID == "mutated" {
		t.Error("clone shares vertex storage with original")
	}
	v, i, cl, e := c.ElementCount()
	ov, oi, ocl, oe := g.ElementCount()
	if i != oi || cl != ocl || e != oe || v != ov {
		t.Errorf("clone counts differ: (%d %d %d %d) vs (%d %d %d %d)", v, i, cl, e, ov, oi, ocl, oe)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		root *Cluster
	}{
		{"duplicate id", &Cluster{ID: "r", Vertices: []*Vertex{{ID: "a"}, {ID: "a"}}}},
		{"empty id", &Cluster{ID: "r", Vertices: []*Vertex{{ID: ""}}}},
		{"edge to unknown", &Cluster{ID: "r", Vertices: []*Vertex{{ID: "a"}},
			Edges: []*Edge{{ID: "e", From: "a", To: "b"}}}},
		{"interface without cluster", &Cluster{ID: "r",
			Interfaces: []*Interface{{ID: "i"}}}},
		{"edge to interface without port", &Cluster{ID: "r",
			Vertices: []*Vertex{{ID: "a"}},
			Interfaces: []*Interface{{ID: "i", Ports: []Port{{Name: "in"}},
				Clusters: []*Cluster{{ID: "c", Vertices: []*Vertex{{ID: "x"}},
					PortBinding: map[string]ID{"in": "x"}}}}},
			Edges: []*Edge{{ID: "e", From: "a", To: "i"}}}},
		{"vertex endpoint with port", &Cluster{ID: "r",
			Vertices: []*Vertex{{ID: "a"}, {ID: "b"}},
			Edges:    []*Edge{{ID: "e", From: "a", To: "b", ToPort: "p"}}}},
		{"missing port binding", &Cluster{ID: "r",
			Interfaces: []*Interface{{ID: "i", Ports: []Port{{Name: "in"}},
				Clusters: []*Cluster{{ID: "c", Vertices: []*Vertex{{ID: "x"}}}}}}}},
		{"binding to non-node", &Cluster{ID: "r",
			Interfaces: []*Interface{{ID: "i", Ports: []Port{{Name: "in"}},
				Clusters: []*Cluster{{ID: "c", Vertices: []*Vertex{{ID: "x"}},
					PortBinding: map[string]ID{"in": "y"}}}}}}},
		{"binding for undeclared port", &Cluster{ID: "r",
			Interfaces: []*Interface{{ID: "i",
				Clusters: []*Cluster{{ID: "c", Vertices: []*Vertex{{ID: "x"}},
					PortBinding: map[string]ID{"ghost": "x"}}}}}}},
		{"duplicate port", &Cluster{ID: "r",
			Interfaces: []*Interface{{ID: "i", Ports: []Port{{Name: "p"}, {Name: "p"}},
				Clusters: []*Cluster{{ID: "c", Vertices: []*Vertex{{ID: "x"}},
					PortBinding: map[string]ID{"p": "x"}}}}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New("bad", tc.root); err == nil {
				t.Errorf("New accepted invalid graph (%s)", tc.name)
			}
		})
	}
}

func TestBuilderErrorAccumulation(t *testing.T) {
	b := NewBuilder("bad", "r")
	b.Root().Vertex("v", "odd")              // odd attribute list
	b.Root().Vertex("w", 1, 2)               // non-string key
	b.Root().Vertex("x", "k", "not-numeric") // non-numeric value
	_, err := b.Build()
	if err == nil {
		t.Fatal("Build should fail with accumulated errors")
	}
	// All accumulated problems must be reported, not just the first.
	msg := err.Error()
	for _, want := range []string{
		"3 construction error(s)",
		"element v: odd attribute list",
		"element w: attribute key 1 is not a string",
		"element x: attribute k has non-numeric value not-numeric",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("Build error lacks %q:\n%s", want, msg)
		}
	}
}

func TestBuilderAttrs(t *testing.T) {
	b := NewBuilder("g", "r")
	b.Root().Vertex("v", "cost", 100, "lat", 2.5).Attr("rootAttr", 7)
	ifc := b.Root().Interface("i", Port{Name: "p"})
	ifc.Attr("ia", 1).Cluster("c").Attr("ca", 2).Vertex("x").Bind("p", "x")
	g := b.MustBuild()
	v := g.VertexByID("v")
	if got := v.Attrs.GetDefault("cost", 0); got != 100 {
		t.Errorf("cost = %v, want 100", got)
	}
	if got := v.Attrs.GetDefault("lat", 0); got != 2.5 {
		t.Errorf("lat = %v, want 2.5", got)
	}
	if got := g.Root.Attrs.GetDefault("rootAttr", 0); got != 7 {
		t.Errorf("rootAttr = %v, want 7", got)
	}
	if got := g.InterfaceByID("i").Attrs.GetDefault("ia", 0); got != 1 {
		t.Errorf("ia = %v, want 1", got)
	}
	if got := g.ClusterByID("c").Attrs.GetDefault("ca", 0); got != 2 {
		t.Errorf("ca = %v, want 2", got)
	}
	if _, ok := v.Attrs.Get("missing"); ok {
		t.Error("Get(missing) reported present")
	}
}

func TestAttrsNilSafety(t *testing.T) {
	var a Attrs
	if _, ok := a.Get("x"); ok {
		t.Error("nil Attrs Get reported present")
	}
	if got := a.GetDefault("x", 3); got != 3 {
		t.Errorf("nil Attrs GetDefault = %v, want 3", got)
	}
	if a.Clone() != nil {
		t.Error("nil Attrs Clone should stay nil")
	}
}

func TestTopoSort(t *testing.T) {
	fg := &FlatGraph{
		Name:     "dag",
		Vertices: []*Vertex{{ID: "c"}, {ID: "a"}, {ID: "b"}},
		Edges:    []FlatEdge{{From: "a", To: "b"}, {From: "b", To: "c"}},
	}
	order, err := fg.TopoSort()
	if err != nil {
		t.Fatalf("TopoSort: %v", err)
	}
	want := []ID{"a", "b", "c"}
	for i, w := range want {
		if order[i].ID != w {
			t.Errorf("order[%d] = %s, want %s", i, order[i].ID, w)
		}
	}
	if !fg.IsAcyclic() {
		t.Error("IsAcyclic = false for DAG")
	}
}

func TestTopoSortCycle(t *testing.T) {
	fg := &FlatGraph{
		Name:     "cycle",
		Vertices: []*Vertex{{ID: "a"}, {ID: "b"}},
		Edges:    []FlatEdge{{From: "a", To: "b"}, {From: "b", To: "a"}},
	}
	if _, err := fg.TopoSort(); err == nil {
		t.Error("TopoSort accepted a cyclic graph")
	}
	if fg.IsAcyclic() {
		t.Error("IsAcyclic = true for cycle")
	}
}

func TestFlatGraphAdjacency(t *testing.T) {
	fg := &FlatGraph{
		Vertices: []*Vertex{{ID: "a"}, {ID: "b"}, {ID: "c"}},
		Edges:    []FlatEdge{{From: "a", To: "b"}, {From: "a", To: "c"}},
	}
	if got := fg.Successors("a"); len(got) != 2 {
		t.Errorf("Successors(a) = %v, want 2 entries", got)
	}
	if got := fg.Predecessors("c"); len(got) != 1 || got[0] != "a" {
		t.Errorf("Predecessors(c) = %v, want [a]", got)
	}
	if fg.VertexByID("b") == nil || fg.VertexByID("zz") != nil {
		t.Error("FlatGraph.VertexByID misbehaves")
	}
}

// randomGraph builds a random but valid hierarchical graph from a seed.
// Used by the property tests below.
func randomGraph(seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	counter := 0
	nextID := func(prefix string) ID {
		counter++
		return ID(fmt.Sprintf("%s%d", prefix, counter))
	}
	var fill func(cb *ClusterBuilder, depth int)
	fill = func(cb *ClusterBuilder, depth int) {
		nv := 1 + rng.Intn(3)
		var ids []ID
		for k := 0; k < nv; k++ {
			id := nextID("v")
			cb.Vertex(id)
			ids = append(ids, id)
		}
		for k := 1; k < len(ids); k++ {
			if rng.Intn(2) == 0 {
				cb.Edge(ids[k-1], ids[k])
			}
		}
		if depth > 0 {
			ni := rng.Intn(3)
			for k := 0; k < ni; k++ {
				ib := cb.Interface(nextID("i"), Port{Name: "p", Dir: In})
				nc := 1 + rng.Intn(3)
				for j := 0; j < nc; j++ {
					sub := ib.Cluster(nextID("g"))
					fill(sub, depth-1)
					sub.Bind("p", sub.c.Vertices[0].ID)
				}
			}
		}
	}
	b := NewBuilder(fmt.Sprintf("rand%d", seed), "root")
	fill(b.Root(), 2+rng.Intn(2))
	return b.MustBuild()
}

// Property: CountVariants equals the number of enumerated selections,
// and every enumerated selection is complete and flattens successfully.
func TestPropVariantCountMatchesEnumeration(t *testing.T) {
	prop := func(seed int64) bool {
		g := randomGraph(seed % 1000)
		n := 0
		ok := true
		g.EnumerateSelections(func(s Selection) bool {
			n++
			if !g.Complete(s) {
				ok = false
				return false
			}
			if _, err := g.Flatten(s); err != nil {
				ok = false
				return false
			}
			return n < 20000
		})
		if n >= 20000 {
			return true // graph too large to enumerate fully; skip count check
		}
		return ok && n == g.CountVariants()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the leaves of a graph are exactly the union of the vertices
// appearing in the flattened variants.
func TestPropLeavesCoverFlattenedVertices(t *testing.T) {
	prop := func(seed int64) bool {
		g := randomGraph(seed % 1000)
		leafSet := map[ID]bool{}
		for _, v := range g.Leaves() {
			leafSet[v.ID] = true
		}
		covered := map[ID]bool{}
		n := 0
		g.EnumerateSelections(func(s Selection) bool {
			fg, err := g.Flatten(s)
			if err != nil {
				return false
			}
			for _, v := range fg.Vertices {
				if !leafSet[v.ID] {
					return false
				}
				covered[v.ID] = true
			}
			n++
			return n < 5000
		})
		if n >= 5000 {
			return true
		}
		return len(covered) == len(leafSet)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: cloning preserves validation, counts and variant counts.
func TestPropCloneEquivalence(t *testing.T) {
	prop := func(seed int64) bool {
		g := randomGraph(seed % 1000)
		c := g.Clone()
		if err := c.Validate(); err != nil {
			return false
		}
		v1, i1, c1, e1 := g.ElementCount()
		v2, i2, c2, e2 := c.ElementCount()
		return v1 == v2 && i1 == i2 && c1 == c2 && e1 == e2 &&
			g.CountVariants() == c.CountVariants() && g.Depth() == c.Depth()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkLeaves(b *testing.B) {
	g := randomGraph(42)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Leaves()
	}
}

func BenchmarkFlatten(b *testing.B) {
	g := randomGraph(42)
	var sel Selection
	g.EnumerateSelections(func(s Selection) bool { sel = s.Clone(); return false })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.Flatten(sel); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnumerateSelections(b *testing.B) {
	g := randomGraph(7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		g.EnumerateSelections(func(Selection) bool { n++; return n < 1000 })
	}
}
