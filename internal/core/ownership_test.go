package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/models"
	"repro/internal/spec"
)

// frontJSON renders a front through the result's wire form.
func frontJSON(t *testing.T, front []*Implementation) string {
	t.Helper()
	b, err := (&Result{Front: front}).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// assertNoSharedMaps fails when two implementations of a front hold
// the same Binding or ArchSelection map, or two behaviours the same
// Binding map. (Behaviours of one implementation may share an
// architecture selection.)
func assertNoSharedMaps(t *testing.T, name string, front []*Implementation) {
	t.Helper()
	if len(front) == 0 {
		t.Fatalf("%s: empty front", name)
	}
	type owner struct {
		impl  int
		where string
	}
	seen := map[uintptr]owner{}
	check := func(kind string, m any, impl int, where string) {
		v := reflect.ValueOf(m)
		if v.IsNil() || v.Len() == 0 {
			return
		}
		p := v.Pointer()
		if prev, ok := seen[p]; ok && (kind == "binding" || prev.impl != impl) {
			t.Errorf("%s: %s %s shares its map with %s", name, where, kind, prev.where)
		}
		seen[p] = owner{impl, where + " " + kind}
	}
	for i, im := range front {
		for j, b := range im.Behaviours {
			where := fmt.Sprintf("implementation %d (%s) behaviour %d", i, im.Allocation, j)
			check("binding", b.Binding, i, where)
			check("arch selection", b.ArchSelection, i, where)
		}
	}
}

// TestFrontOwnsItsMaps: the cached evaluator shares bindings and
// architecture selections with its caches until a front admits an
// implementation. A Progress consumer that clears every map it is
// handed must not change the final front, and no two front behaviours
// may share a map.
func TestFrontOwnsItsMaps(t *testing.T) {
	clearing := func(p Progress) {
		for _, im := range p.Front {
			for _, b := range im.Behaviours {
				clear(b.Binding)
				clear(b.ArchSelection)
			}
		}
	}
	runs := []struct {
		name string
		run  func(s *spec.Spec, opts Options) []*Implementation
	}{
		{"Explore", func(s *spec.Spec, opts Options) []*Implementation { return Explore(s, opts).Front }},
		{"ExploreParallel", func(s *spec.Spec, opts Options) []*Implementation {
			return ExploreParallel(s, opts, 2, 0).Front
		}},
		{"ExploreMulti", func(s *spec.Spec, opts Options) []*Implementation {
			return Run(context.Background(), s, opts, Request{Kind: KindMulti, Objectives: []Objective{CostObjective(), InvFlexibilityObjective(), MeanLatencyObjective()}}).Front
		}},
	}
	for _, sub := range []struct {
		name string
		s    *spec.Spec
	}{
		{"settop", models.SetTopBox()},
		{"synthetic2", models.Synthetic(models.DefaultSynthetic(2))},
	} {
		for _, r := range runs {
			name := sub.name + "/" + r.name
			want := r.run(sub.s, Options{})
			assertNoSharedMaps(t, name, want)
			got := r.run(sub.s, Options{Progress: clearing, ProgressEvery: 4})
			assertNoSharedMaps(t, name+" disturbed", got)
			if g, w := frontJSON(t, got), frontJSON(t, want); g != w {
				t.Errorf("%s: a Progress consumer changed the front:\n%s\nwant\n%s", name, g, w)
			}
		}
		assertNoSharedMaps(t, sub.name+"/RandomSearch", Run(context.Background(), sub.s, Options{}, Request{Kind: KindRandom, Iterations: 400, Seed: 1}).Front)
		assertNoSharedMaps(t, sub.name+"/Evolutionary", Run(context.Background(), sub.s, Options{}, Request{Kind: KindEvolutionary, Seed: 1}).Front)
	}
}

// TestProgressReportsShareNothing: a Progress consumer that overwrites
// every map and slice of every report it is handed — allocations,
// implemented clusters, each behaviour's ECS, binding and architecture
// selection, and the behaviour lists — leaves the run's front equal to
// the front of a run no consumer observed, inline and pooled.
func TestProgressReportsShareNothing(t *testing.T) {
	vandal := func(p Progress) {
		for _, im := range p.Front {
			clear(im.Allocation)
			for i := range im.Clusters {
				im.Clusters[i] = "X"
			}
			for j := range im.Behaviours {
				b := &im.Behaviours[j]
				for k := range b.ECS.Selection {
					b.ECS.Selection[k] = "Y"
				}
				for i := range b.ECS.Clusters {
					b.ECS.Clusters[i] = "Z"
				}
				clear(b.Binding)
				clear(b.ArchSelection)
				*b = Behaviour{}
			}
		}
	}
	for _, sub := range []struct {
		name string
		s    *spec.Spec
	}{
		{"settop", models.SetTopBox()},
		{"synthetic2", models.Synthetic(models.DefaultSynthetic(2))},
	} {
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("%s/workers=%d", sub.name, workers)
			want := ExploreParallel(sub.s, Options{}, workers, 0).Front
			reports := 0
			got := ExploreParallel(sub.s, Options{ProgressEvery: 1, Progress: func(p Progress) {
				reports++
				vandal(p)
			}}, workers, 0).Front
			if reports == 0 {
				t.Fatalf("%s: no Progress report", name)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: a Progress consumer changed the front:\n%s\nwant\n%s", name, frontJSON(t, got), frontJSON(t, want))
			}
		}
	}
}
