package core

import (
	"slices"
	"testing"

	"repro/internal/alloc"
	"repro/internal/hgraph"
	"repro/internal/models"
	"repro/internal/spec"
)

// refView is the map-based architecture view the bitset spec.ArchView
// must agree with: the feasibility rule applied directly to a partial
// flattening's edges and an allocation's ResourceSet.
type refView struct {
	s       *spec.Spec
	present map[hgraph.ID]bool
	adj     map[hgraph.ID]map[hgraph.ID]bool
}

func newRefView(s *spec.Spec, fg *hgraph.FlatGraph, a spec.Allocation) *refView {
	avail := a.ResourceSet(s)
	rv := &refView{s: s, present: map[hgraph.ID]bool{}, adj: map[hgraph.ID]map[hgraph.ID]bool{}}
	for _, v := range fg.Vertices {
		if avail[v.ID] {
			rv.present[v.ID] = true
		}
	}
	link := func(x, y hgraph.ID) {
		if rv.adj[x] == nil {
			rv.adj[x] = map[hgraph.ID]bool{}
		}
		rv.adj[x][y] = true
	}
	for _, e := range fg.Edges {
		if rv.present[e.From] && rv.present[e.To] {
			link(e.From, e.To)
			link(e.To, e.From)
		}
	}
	return rv
}

func (rv *refView) canCommunicate(r1, r2 hgraph.ID) bool {
	if r1 == r2 {
		return rv.present[r1]
	}
	if !rv.present[r1] || !rv.present[r2] {
		return false
	}
	if rv.adj[r1][r2] {
		return true
	}
	for b := range rv.adj[r1] {
		if rv.s.IsComm(b) && rv.adj[b][r2] {
			return true
		}
	}
	return false
}

func (rv *refView) presentResources() []hgraph.ID {
	var out []hgraph.ID
	for id := range rv.present {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// TestArchViewMatchesReference covers every possible allocation
// (useless buses included) of the differential models. For each, the
// evaluator's interned configuration list must follow
// EnumerateArchSelections, and the bitset view of every configuration —
// as the evaluator builds it, and through ArchViewFor — must answer
// Present, PresentResources, Adjacent and CanCommunicate like the
// reference on every ordered resource pair.
func TestArchViewMatchesReference(t *testing.T) {
	subjects := []struct {
		name string
		s    *spec.Spec
	}{
		{"settop", models.SetTopBox()},
		{"decoder", models.Decoder()},
		{"sdr", models.SDR()},
		{"synthetic2", models.Synthetic(models.DefaultSynthetic(2))},
		{"synthetic3", models.Synthetic(models.DefaultSynthetic(3))},
		{"synthetic7", models.Synthetic(models.DefaultSynthetic(7))},
	}
	for _, sub := range subjects {
		t.Run(sub.name, func(t *testing.T) {
			s := sub.s
			ev := newEvaluator(s, Options{})
			var leaves []hgraph.ID
			for _, v := range s.Arch.Leaves() {
				leaves = append(leaves, v.ID)
			}
			probes := append(slices.Clone(leaves), "no-such-resource")
			flats := map[string]*hgraph.FlatGraph{}
			// A view is a function of its configuration and present
			// set, so each distinct pair is compared once.
			seen := map[string]bool{}
			checked := 0
			alloc.EnumerateSymbolicRange(s, alloc.Options{IncludeUselessComm: true}, 0, func(c alloc.Candidate) bool {
				a := c.Allocation
				var want []hgraph.Selection
				a.EnumerateArchSelections(s, func(sel hgraph.Selection) bool {
					if _, err := s.Arch.FlattenPartial(sel); err == nil {
						want = append(want, sel.Clone())
					}
					return true
				})
				cfgs := ev.configs(a)
				if len(cfgs) != len(want) {
					t.Fatalf("%s: %d interned configurations, EnumerateArchSelections yields %d", a, len(cfgs), len(want))
				}
				avail := ev.sup.AvailOf(a)
				for i, cfg := range cfgs {
					key := want[i].String()
					if cfg.sel.String() != key {
						t.Fatalf("%s: configuration %d is %v, EnumerateArchSelections yields %v", a, i, cfg.sel, want[i])
					}
					av := cfg.links.View(cfg.sel, avail)
					pk := key + "|" + av.PresentSet().Key()
					if seen[pk] {
						continue
					}
					seen[pk] = true
					fg := flats[key]
					if fg == nil {
						fg, _ = s.Arch.FlattenPartial(want[i])
						flats[key] = fg
					}
					ref := newRefView(s, fg, a)
					viaFor, err := s.ArchViewFor(a, want[i])
					if err != nil {
						t.Fatal(err)
					}
					for _, av := range []*spec.ArchView{av, viaFor} {
						if got, exp := av.PresentResources(), ref.presentResources(); !slices.Equal(got, exp) {
							t.Fatalf("%s under %v: PresentResources %v, reference %v", a, want[i], got, exp)
						}
						for _, r1 := range probes {
							if av.Present(r1) != ref.present[r1] {
								t.Fatalf("%s under %v: Present(%s) = %v", a, want[i], r1, av.Present(r1))
							}
							for _, r2 := range probes {
								if got, exp := av.Adjacent(r1, r2), ref.adj[r1][r2]; got != exp {
									t.Fatalf("%s under %v: Adjacent(%s, %s) = %v, reference %v", a, want[i], r1, r2, got, exp)
								}
								if got, exp := av.CanCommunicate(r1, r2), ref.canCommunicate(r1, r2); got != exp {
									t.Fatalf("%s under %v: CanCommunicate(%s, %s) = %v, reference %v", a, want[i], r1, r2, got, exp)
								}
							}
						}
						checked++
					}
				}
				return true
			})
			if checked == 0 {
				t.Fatal("no view checked")
			}
		})
	}
}
