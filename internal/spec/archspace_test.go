package spec_test

import (
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/hgraph"
	"repro/internal/models"
	"repro/internal/spec"
)

// archSubjects are the specifications the architecture-space
// differential tests run on.
func archSubjects(t *testing.T) map[string]*spec.Spec {
	out := map[string]*spec.Spec{
		"settop":  models.SetTopBox(),
		"sdr":     models.SDR(),
		"decoder": models.Decoder(),
		"wide":    models.Synthetic(models.ScaledSynthetic(1, 22)),
	}
	for seed := int64(1); seed <= 7; seed++ {
		out["synthetic"+string(rune('0'+seed))] = models.Synthetic(models.DefaultSynthetic(seed))
	}
	out["nested"] = nestedArch(t)
	return out
}

// nestedArch is a specification whose architecture nests interfaces: a
// bus reaches the FPGA through a port that one design binds to a vertex
// and the other to a nested interface, whose own designs bind it on,
// and a second top-level interface follows the nested one in the
// enumeration order. A third FPGA design nests three deep, each level
// holding only the next interface (rack ⊃ BAY ⊃ bay ⊃ CARD, two
// cards), and the second top-level interface's last design nests one
// more, so every card is enumerated after a configuration that decided
// an interface nested in the sibling.
func nestedArch(t *testing.T) *spec.Spec {
	t.Helper()
	pb := hgraph.NewBuilder("problem", "ptop")
	pb.Root().Vertex("P")
	problem := pb.MustBuild()

	ab := hgraph.NewBuilder("arch", "atop")
	r := ab.Root()
	r.Vertex("uP").Vertex("C", spec.AttrComm, 1)
	fpga := r.Interface("FPGA", hgraph.Port{Name: "bus"})
	fpga.Cluster("flat").Vertex("F").Bind("bus", "F")
	deep := fpga.Cluster("deep").Vertex("D").Vertex("E", spec.AttrComm, 1)
	deep.Edge("D", "E")
	slot := deep.Interface("SLOT", hgraph.Port{Name: "bus"})
	slot.Cluster("s1").Vertex("S1").Bind("bus", "S1")
	slot.Cluster("s2").Vertex("S2").Vertex("S3").Edge("S2", "S3").Bind("bus", "S2")
	deep.Bind("bus", "SLOT").PortEdge("E", "", "SLOT", "bus")
	rack := fpga.Cluster("rack").Vertex("RK").Bind("bus", "BAY")
	bay := rack.Interface("BAY", hgraph.Port{Name: "bus"}).Cluster("bay").Vertex("BY").Bind("bus", "CARD")
	card := bay.Interface("CARD", hgraph.Port{Name: "bus"})
	card.Cluster("card1").Vertex("K1").Bind("bus", "K1")
	card.Cluster("card2").Vertex("K2").Bind("bus", "K2")
	io := r.Interface("IO", hgraph.Port{Name: "bus"})
	io.Cluster("io1").Vertex("I1").Bind("bus", "I1")
	io2 := io.Cluster("io2").Vertex("I2").Bind("bus", "I2")
	io2.Interface("EXT").Cluster("ext").Vertex("X1")
	r.Edge("uP", "C").PortEdge("C", "", "FPGA", "bus").PortEdge("C", "", "IO", "bus")
	arch := ab.MustBuild()
	s, err := spec.New("nested", problem, arch, []*spec.Mapping{{Process: "P", Resource: "uP", Latency: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestArchSpaceMatchesFlattening: on every subset of the architecture
// clusters, ArchSpace.Enumerate yields the configurations of the former
// map-based recursion in its order, as does EnumerateArchSelections, and
// each configuration's selection maps back to it; its Links hold the
// mask, the adjacency rows and the buses the former LinksOf read off
// the partial flattening.
func TestArchSpaceMatchesFlattening(t *testing.T) {
	for name, s := range archSubjects(t) {
		t.Run(name, func(t *testing.T) {
			x := spec.NewArchSpace(s)
			var ids []hgraph.ID
			for i := range x.Clusters.Len() {
				if id := x.Clusters.At(i); id != s.Arch.Root.ID {
					ids = append(ids, id)
				}
			}
			if len(ids) > 12 {
				t.Fatalf("%d architecture clusters: too many subsets to cover", len(ids))
			}
			configs := 0
			for mask := range 1 << len(ids) {
				a := spec.Allocation{}
				allocated := bitset.New(x.Clusters.Len())
				for k, id := range ids {
					if mask>>k&1 == 1 {
						a[id] = true
						i, _ := x.Clusters.Index(id)
						allocated.Add(i)
					}
				}
				var want, viaMap []hgraph.Selection
				spec.MapArchSelections(a, s, func(sel hgraph.Selection) bool {
					want = append(want, sel.Clone())
					return true
				})
				a.EnumerateArchSelections(s, func(sel hgraph.Selection) bool {
					viaMap = append(viaMap, sel.Clone())
					return true
				})
				if !slices.EqualFunc(viaMap, want, selEqual) {
					t.Fatalf("%v: EnumerateArchSelections yields %v, the map recursion %v", a, viaMap, want)
				}
				k := 0
				x.Enumerate(allocated, func(cfg bitset.Set) bool {
					sel := x.Selection(cfg)
					if k >= len(want) || !selEqual(sel, want[k]) {
						t.Fatalf("%v: configuration %d is %v, want %v", a, k, sel, want)
					}
					k++
					if back, err := x.Configuration(sel); err != nil || !back.Equal(cfg) {
						t.Fatalf("%v: Configuration(%v) = %v, %v; want %v", a, sel, back, err, cfg)
					}
					checkLinks(t, s, x, cfg, sel)
					return true
				})
				if k != len(want) {
					t.Fatalf("%v: %d configurations, the map recursion yields %d", a, k, len(want))
				}
				configs += k
			}
			if configs == 0 {
				t.Fatal("no configuration checked")
			}
		})
	}
}

func selEqual(a, b hgraph.Selection) bool { return a.String() == b.String() }

// checkLinks compares the configuration's links with the former
// construction on its partial flattening.
func checkLinks(t *testing.T, s *spec.Spec, x *spec.ArchSpace, cfg bitset.Set, sel hgraph.Selection) {
	t.Helper()
	fg, err := s.Arch.FlattenPartial(sel)
	if err != nil {
		t.Fatalf("%v: %v", sel, err)
	}
	mask, rows, buses := x.Links(cfg).LinkSets()
	wantMask, wantRows, wantBuses := spec.FlatLinks(s, fg)
	if !mask.Equal(wantMask) {
		t.Fatalf("%v: mask %v, flattening %v", sel, mask, wantMask)
	}
	for i := range wantRows {
		if !rows[i].Equal(wantRows[i]) || !buses[i].Equal(wantBuses[i]) {
			t.Fatalf("%v: resource %s links %v buses %v, flattening %v and %v",
				sel, s.Resources().At(i), rows[i], buses[i], wantRows[i], wantBuses[i])
		}
	}
}
