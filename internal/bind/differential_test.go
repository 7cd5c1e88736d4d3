package bind

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/alloc"
	"repro/internal/hgraph"
	"repro/internal/models"
	"repro/internal/spec"
)

var timingPolicies = []TimingPolicy{TimingPaper, TimingNone, TimingLiuLayland, TimingRTA, TimingEDF, TimingHyperbolic}

// oracleInstances returns every flattenable ECS of s and every distinct
// (architecture configuration, present set) view over the possible
// allocations of s, useless buses included.
func oracleInstances(s *spec.Spec) ([]*hgraph.FlatGraph, []*spec.ArchView) {
	var flats []*hgraph.FlatGraph
	s.Problem.EnumerateSelections(func(sel hgraph.Selection) bool {
		if fp, err := s.Problem.Flatten(sel); err == nil {
			flats = append(flats, fp)
		}
		return true
	})
	var views []*spec.ArchView
	seen := map[string]bool{}
	alloc.EnumerateSymbolicRange(s, alloc.Options{IncludeUselessComm: true}, 0, func(c alloc.Candidate) bool {
		c.Allocation.EnumerateArchSelections(s, func(sel hgraph.Selection) bool {
			av, err := s.ArchViewFor(c.Allocation, sel)
			if err != nil {
				return true
			}
			if key := sel.String() + "|" + av.PresentSet().Key(); !seen[key] {
				seen[key] = true
				views = append(views, av)
			}
			return true
		})
		return true
	})
	return flats, views
}

// corrupt returns a copy of the binding b of fp broken in one of
// several ways, chosen by k: a process left unbound, a process moved to
// another resource (mapped or not, present or not), or an extra
// process.
func corrupt(s *spec.Spec, fp *hgraph.FlatGraph, b Binding, k int) Binding {
	c := maps.Clone(b)
	v := fp.Vertices[k%len(fp.Vertices)].ID
	leaves := s.Arch.Leaves()
	switch k % 4 {
	case 0:
		delete(c, v)
	case 1:
		c[v] = leaves[k%len(leaves)].ID
	case 2:
		if ms := s.MappingsFor(v); len(ms) > 0 {
			c[v] = ms[k%len(ms)].Resource
		}
	case 3:
		c["no-such-process"] = b[v]
	}
	return c
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// compareWithOracle checks Problem.Solve, Check and Problem.Verify on
// one instance against the map-based oracles, and Find and
// Problem.MinLatency when find and minLatency are set (grids run them
// on a share of their instances to stay fast). k varies the
// corruption.
func compareWithOracle(t *testing.T, s *spec.Spec, fp *hgraph.FlatGraph, p *Problem, av *spec.ArchView, opts Options, sc *Scratch, find, minLatency bool, k int) {
	t.Helper()
	where := func() string {
		return fmt.Sprintf("ECS %v on %v present %v, %+v", fp.Vertices, av.Selection, av.PresentResources(), opts)
	}
	want, wantOK := oracleFind(s, fp, av, opts)
	if find {
		got, gotOK := Find(s, fp, av, opts)
		if gotOK != wantOK || got.Nodes != want.Nodes || got.Truncated != want.Truncated || !maps.Equal(got.Binding, want.Binding) {
			t.Fatalf("%s: Find = %v %v nodes %d truncated %v, oracle %v %v nodes %d truncated %v",
				where(), gotOK, got.Binding, got.Nodes, got.Truncated, wantOK, want.Binding, want.Nodes, want.Truncated)
		}
	}
	// The prepared form, on scratch shared across instances.
	r, ok := p.Solve(av, opts, sc)
	if ok != wantOK || r.Nodes != want.Nodes || r.Truncated != want.Truncated {
		t.Fatalf("%s: Solve = %v nodes %d truncated %v, oracle %v nodes %d truncated %v",
			where(), ok, r.Nodes, r.Truncated, wantOK, want.Nodes, want.Truncated)
	}
	if ok {
		if b := p.Binding(r.Binding); !maps.Equal(b, want.Binding) {
			t.Fatalf("%s: Solve binding %v, oracle %v", where(), b, want.Binding)
		}
		if err := p.Verify(av, slices.Clone(r.Binding), opts, sc); err != nil {
			t.Fatalf("%s: Verify rejects the solver's binding: %v", where(), err)
		}
	}
	if wantOK {
		if g, w := errText(Check(s, fp, av, want.Binding, opts)), errText(oracleCheck(s, fp, av, want.Binding, opts)); g != w {
			t.Fatalf("%s: Check(witness) = %s, oracle %s", where(), g, w)
		}
		bad := corrupt(s, fp, want.Binding, k)
		if g, w := errText(Check(s, fp, av, bad, opts)), errText(oracleCheck(s, fp, av, bad, opts)); g != w {
			t.Fatalf("%s: Check(%v) = %s, oracle %s", where(), bad, g, w)
		}
	}
	if !minLatency {
		return
	}
	wantMin, wantMinOK := oracleFindMinLatency(s, fp, av, opts)
	m, ok := p.MinLatency(av, opts, sc)
	if ok != wantMinOK || m.Nodes != wantMin.Nodes || m.Truncated != wantMin.Truncated {
		t.Fatalf("%s: MinLatency = %v nodes %d truncated %v, oracle %v nodes %d truncated %v",
			where(), ok, m.Nodes, m.Truncated, wantMinOK, wantMin.Nodes, wantMin.Truncated)
	}
	if ok {
		if b := p.Binding(m.Binding); !maps.Equal(b, wantMin.Binding) {
			t.Fatalf("%s: MinLatency binding %v, oracle %v", where(), b, wantMin.Binding)
		}
	}
}

// TestBindMatchesOracle: on every (ECS, architecture configuration,
// present set) of the differential models, under every timing policy,
// unbounded and with a 3-node bound, the index-space solver and
// verifier agree with the map-based oracle on the verdict, the
// binding, Nodes and Truncated, and Check's error text on the oracle's
// witness and on a corrupted copy. Under the race detector, which slows
// the oracle about tenfold, the grid checks every 16th view.
func TestBindMatchesOracle(t *testing.T) {
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
			t.Parallel()
			s := sub.s
			flats, views := oracleInstances(s)
			stride := 1
			if raceDetector {
				stride = 16
			}
			var sc Scratch
			k := 0
			for _, fp := range flats {
				p := Prepare(s, fp)
				for v := 0; v < len(views); v += stride {
					av := views[v]
					for _, timing := range timingPolicies {
						for _, maxNodes := range []int{0, 3} {
							// Find runs on one option set per (ECS, view),
							// MinLatency unbounded under one timing policy
							// per view, in rotation.
							find := k%12 == 0
							minLatency := maxNodes == 0 && timing == timingPolicies[v%len(timingPolicies)]
							compareWithOracle(t, s, fp, p, av, Options{Timing: timing, MaxNodes: maxNodes}, &sc, find, minLatency, k)
							k++
						}
					}
				}
			}
			t.Logf("%d ECSs × %d views: %d instances", len(flats), len(views), k)
		})
	}
}
