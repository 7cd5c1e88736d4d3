package bind

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/cover"
	"repro/internal/hgraph"
	"repro/internal/models"
	"repro/internal/spec"
)

// spaceSubjects are the specifications the problem-space differential
// runs on.
func spaceSubjects(t *testing.T) map[string]*spec.Spec {
	out := map[string]*spec.Spec{
		"settop":  models.SetTopBox(),
		"sdr":     models.SDR(),
		"decoder": models.Decoder(),
		"wide":    models.Synthetic(models.ScaledSynthetic(1, 22)),
	}
	for seed := int64(1); seed <= 7; seed++ {
		out[fmt.Sprint("synthetic", seed)] = models.Synthetic(models.DefaultSynthetic(seed))
	}
	out["nested"] = nestedProblem(t)
	return out
}

// nestedProblem is a specification whose problem graph nests
// interfaces. Interface I's port "in" is bound to a vertex in c1, and
// in c2 to a nested interface J that declares the port too, whose
// clusters bind it on; in c3 it is bound to a nested interface K that
// declares only "other", so K's clusters bind no "in" and no ECS
// selecting c3 flattens. A second top-level interface M follows I in
// the enumeration order, and an edge joins the two interfaces' ports.
// I's cluster c4 nests four deep, each level holding only the next
// interface (c4 ⊃ X ⊃ x1 ⊃ Y ⊃ y1 ⊃ Z, two clusters; Y has a second
// cluster), and M's last cluster nests P, whose last cluster nests R, so
// Y's and Z's second clusters are enumerated after ECSs that decided
// interfaces nested in M. The root's edges from A are collected out of
// target order.
func nestedProblem(t *testing.T) *spec.Spec {
	t.Helper()
	pb := hgraph.NewBuilder("problem", "ptop")
	r := pb.Root()
	r.Vertex("A", spec.AttrPeriod, 10).Vertex("A0")
	ifI := r.Interface("I", hgraph.Port{Name: "in"})
	ifI.Cluster("c1").Vertex("B", spec.AttrPeriod, 10).Bind("in", "B")
	c2 := ifI.Cluster("c2").Vertex("C")
	ifJ := c2.Interface("J", hgraph.Port{Name: "in"})
	ifJ.Cluster("j1").Vertex("D", spec.AttrPeriod, 20).Bind("in", "D")
	ifJ.Cluster("j2").Vertex("E").Vertex("F").Edge("F", "E").Bind("in", "E")
	c2.Bind("in", "J").PortEdge("C", "", "J", "in")
	c3 := ifI.Cluster("c3").Vertex("G")
	ifK := c3.Interface("K", hgraph.Port{Name: "other"})
	ifK.Cluster("k1").Vertex("H").Bind("other", "H")
	ifK.Cluster("k2").Vertex("L").Bind("other", "L")
	c3.Bind("in", "K").PortEdge("G", "", "K", "other")
	x1 := ifI.Cluster("c4").Vertex("T").Bind("in", "X").
		Interface("X", hgraph.Port{Name: "in"}).Cluster("x1").Vertex("U").Bind("in", "Y")
	ifY := x1.Interface("Y", hgraph.Port{Name: "in"})
	ifZ := ifY.Cluster("y1").Vertex("V").Bind("in", "Z").Interface("Z", hgraph.Port{Name: "in"})
	ifZ.Cluster("z1").Vertex("Z1").Bind("in", "Z1")
	ifZ.Cluster("z2").Vertex("Z2", spec.AttrPeriod, 30).Bind("in", "Z2")
	ifY.Cluster("y2").Vertex("W", spec.AttrPeriod, 15).Bind("in", "W")
	ifM := r.Interface("M", hgraph.Port{Name: "p"})
	ifM.Cluster("m1").Vertex("N").Bind("p", "N")
	m2 := ifM.Cluster("m2").Vertex("O").Vertex("Q", spec.AttrPeriod, 5).Edge("O", "Q").Bind("p", "Q")
	ifP := m2.Interface("P", hgraph.Port{Name: "q"})
	ifP.Cluster("p1").Vertex("Y1").Bind("q", "Y1")
	ifP.Cluster("p2").Vertex("Y2").Bind("q", "Y2").Interface("R").Cluster("r1").Vertex("R1")
	m2.PortEdge("O", "", "P", "q")
	r.PortEdge("A", "", "I", "in").Edge("A", "A0").PortEdge("I", "in", "M", "p").PortEdge("M", "p", "A", "")
	problem := pb.MustBuild()

	ab := hgraph.NewBuilder("arch", "atop")
	ab.Root().Vertex("R1").Vertex("R2").Vertex("BUS", spec.AttrComm, 1).Edge("R1", "BUS").Edge("R2", "BUS")
	arch := ab.MustBuild()
	var maps []*spec.Mapping
	for k, p := range problem.Leaves() {
		maps = append(maps, &spec.Mapping{Process: p.ID, Resource: "R1", Latency: float64(1 + k%3)})
		if k%2 == 0 {
			maps = append(maps, &spec.Mapping{Process: p.ID, Resource: "R2", Latency: float64(2 + k%4)})
		}
	}
	s, err := spec.New("nested", problem, arch, maps)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestProblemSpaceMatchesFlattening: ProblemSpace.Enumerate yields the
// ECSs of cover.EnumerateFunc over every cluster, in its order, each as
// its activated clusters with its selection; an ECS flattens in index
// space exactly when hgraph's Flatten succeeds; and then its leaves,
// ranks, periods, candidates and dependences are the flattening's, and
// the problem NewProblem builds on them is the one Prepare builds.
func TestProblemSpaceMatchesFlattening(t *testing.T) {
	for name, s := range spaceSubjects(t) {
		t.Run(name, func(t *testing.T) {
			var ids []hgraph.ID
			for _, c := range s.Problem.Clusters() {
				ids = append(ids, c.ID)
			}
			clusters := bitset.NewIndexer(ids)
			x := spec.NewProblemSpace(s, clusters)
			var want []cover.ECS
			cover.EnumerateFunc(s.Problem, func(hgraph.ID) bool { return true }, func(e cover.ECS) bool {
				want = append(want, e)
				return true
			})
			k, failed := 0, 0
			x.Enumerate(func(ecs bitset.Set) bool {
				if k >= len(want) {
					t.Fatalf("ECS %d %v: cover enumerates %d", k, clusters.IDs(ecs), len(want))
				}
				w := want[k]
				k++
				if got := clusters.IDs(ecs); !slices.Equal(got, w.Clusters) {
					t.Fatalf("ECS %d activates %v, cover's %v", k-1, got, w.Clusters)
				}
				if sel := x.Selection(ecs); !maps.Equal(sel, w.Selection) {
					t.Fatalf("ECS %d selects %v, cover's %v", k-1, sel, w.Selection)
				}
				leaves, edges, ok := x.Flatten(ecs)
				fg, err := s.Problem.Flatten(w.Selection)
				if ok != (err == nil) {
					t.Fatalf("%v: flattens in index space %v, Flatten: %v", w.Selection, ok, err)
				}
				if !ok {
					failed++
					return true
				}
				checkFlattening(t, s, w.Selection, leaves, edges, fg)
				checkProblem(t, w.Selection, NewProblem(s.Resources(), leaves, edges), Prepare(s, fg))
				return true
			})
			if k != len(want) {
				t.Fatalf("%d ECSs, cover enumerates %d", k, len(want))
			}
			if name == "nested" && (failed == 0 || failed == k) {
				t.Fatalf("%d of %d ECSs fail to flatten, want some but not all", failed, k)
			}
		})
	}
}

// checkFlattening compares an ECS's index-space flattening with fg.
func checkFlattening(t *testing.T, s *spec.Spec, sel hgraph.Selection, leaves []*spec.ProblemLeaf, edges [][2]int32, fg *hgraph.FlatGraph) {
	t.Helper()
	res := s.Resources()
	if len(leaves) != len(fg.Vertices) {
		t.Fatalf("%v: %d leaves, the flattening %d", sel, len(leaves), len(fg.Vertices))
	}
	for i, l := range leaves {
		v := fg.Vertices[i]
		if l.ID != v.ID || l.Period != s.Period(v.ID) || (i > 0 && l.Rank <= leaves[i-1].Rank) {
			t.Fatalf("%v: leaf %d is %s period %v rank %d, the flattening's %s period %v", sel, i, l.ID, l.Period, l.Rank, v.ID, s.Period(v.ID))
		}
		var cands []spec.Candidate
		set := bitset.New(res.Len())
		for _, m := range s.MappingsFor(v.ID) {
			r, _ := res.Index(m.Resource)
			cands = append(cands, spec.Candidate{Res: int32(r), Lat: m.Latency})
			set.Add(r)
		}
		if !slices.Equal(l.Cands, cands) || !l.Res.Equal(set) {
			t.Fatalf("%v: leaf %s candidates %v on %v, mappings %v on %v", sel, l.ID, l.Cands, l.Res, cands, set)
		}
	}
	if len(edges) != len(fg.Edges) {
		t.Fatalf("%v: %d dependences, the flattening %d", sel, len(edges), len(fg.Edges))
	}
	for k, e := range fg.Edges {
		if got := edges[k]; leaves[got[0]].ID != e.From || leaves[got[1]].ID != e.To {
			t.Fatalf("%v: dependence %d is %s->%s, the flattening's %s->%s", sel, k, leaves[got[0]].ID, leaves[got[1]].ID, e.From, e.To)
		}
	}
}

// checkProblem compares a problem built in index space with Prepare's.
func checkProblem(t *testing.T, sel hgraph.Selection, got, want *Problem) {
	t.Helper()
	same := func(a, b *spec.ProblemLeaf) bool {
		return a.ID == b.ID && a.Period == b.Period && slices.Equal(a.Cands, b.Cands) && a.Res.Equal(b.Res)
	}
	if !slices.EqualFunc(got.leaves, want.leaves, same) {
		t.Fatalf("%v: leaves differ from Prepare's", sel)
	}
	if !slices.Equal(got.edges, want.edges) || !slices.Equal(got.nbrs, want.nbrs) || !slices.Equal(got.off, want.off) {
		t.Fatalf("%v: dependences %v (neighbours %v at %v), Prepare's %v (%v at %v)",
			sel, got.edges, got.nbrs, got.off, want.edges, want.nbrs, want.off)
	}
}
