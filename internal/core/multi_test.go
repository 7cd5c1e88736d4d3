package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/bind"
	"repro/internal/hgraph"
	"repro/internal/models"
	"repro/internal/pareto"
	"repro/internal/spec"
)

// TestExploreMultiDefaultMatchesExplore: with the paper's two
// objectives, the generalized explorer returns the same front values as
// EXPLORE.
func TestExploreMultiDefaultMatchesExplore(t *testing.T) {
	s := models.SetTopBox()
	bi := Explore(s, Options{})
	multi := Run(context.Background(), s, Options{}, Request{Kind: KindMulti})
	if len(multi.Front) != len(bi.Front) {
		t.Fatalf("front sizes differ: %d vs %d", len(multi.Front), len(bi.Front))
	}
	for i := range bi.Front {
		if multi.Front[i].Cost != bi.Front[i].Cost ||
			multi.Front[i].Flexibility != bi.Front[i].Flexibility {
			t.Errorf("row %d differs: (%v,%v) vs (%v,%v)", i,
				multi.Front[i].Cost, multi.Front[i].Flexibility,
				bi.Front[i].Cost, bi.Front[i].Flexibility)
		}
	}
	if multi.ObjectiveNames[0] != "cost" || multi.ObjectiveNames[1] != "1/flexibility" {
		t.Errorf("objective names = %v", multi.ObjectiveNames)
	}
}

// TestExploreMultiTriObjective adds mean optimal latency as a third
// criterion: every bi-objective Pareto point stays non-dominated, and
// at least one new point appears that buys speed with money (e.g. a
// faster ASIC).
func TestExploreMultiTriObjective(t *testing.T) {
	s := models.SetTopBox()
	objs := []Objective{CostObjective(), InvFlexibilityObjective(), MeanLatencyObjective()}
	multi := Run(context.Background(), s, Options{AllBehaviours: true}, Request{Kind: KindMulti, Objectives: objs})
	bi := Explore(s, Options{AllBehaviours: true})

	if len(multi.Front) <= len(bi.Front) {
		t.Errorf("tri-objective front (%d) should exceed the bi-objective front (%d)",
			len(multi.Front), len(bi.Front))
	}
	// All bi-front (cost, f) pairs survive.
	for _, want := range bi.Front {
		found := false
		for _, im := range multi.Front {
			if im.Cost == want.Cost && im.Flexibility == want.Flexibility {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("bi-objective point (%v,%v) lost in tri-objective front", want.Cost, want.Flexibility)
		}
	}
	// Mutual non-dominance of the reported vectors.
	for i := range multi.Objectives {
		for j := range multi.Objectives {
			if i != j && pareto.Dominates(multi.Objectives[i], multi.Objectives[j]) {
				t.Errorf("front point %d dominates %d", i, j)
			}
		}
	}
	// No vector may be infinite (all points must have evaluable latency).
	for i, vec := range multi.Objectives {
		for _, v := range vec {
			if math.IsInf(v, 0) {
				t.Errorf("point %d has infinite objective: %v", i, vec)
			}
		}
	}
	// At least one extra point uses a faster ASIC (A2 or A3).
	extra := false
	for _, im := range multi.Front {
		if im.Allocation["A2"] || im.Allocation["A3"] {
			extra = true
		}
	}
	if !extra {
		t.Error("expected a latency-motivated point using A2/A3")
	}
}

// TestResourceSumObjective: a power annotation becomes a first-class
// criterion.
func TestResourceSumObjective(t *testing.T) {
	s := models.SetTopBox()
	power := map[hgraph.ID]float64{
		"uP1": 8, "uP2": 5, "A1": 20, "A2": 22, "A3": 25,
		"D3": 3, "U2": 3, "G1": 3,
		"C1": 1, "C2": 1, "C3": 1, "C4": 1, "C5": 1, "C6": 1,
	}
	for id, w := range power {
		v := s.Arch.VertexByID(id)
		if v.Attrs == nil {
			v.Attrs = hgraph.Attrs{}
		}
		v.Attrs["power"] = w
	}
	objs := []Objective{ResourceSumObjective("power"), InvFlexibilityObjective()}
	multi := Run(context.Background(), s, Options{}, Request{Kind: KindMulti, Objectives: objs})
	if len(multi.Front) == 0 {
		t.Fatal("empty power/flexibility front")
	}
	// Lowest-power point: uP2 alone (5) with f=2.
	first := multi.Objectives[0]
	if first[0] != 5 || first[1] != 0.5 {
		t.Errorf("first point = %v, want (5, 0.5)", first)
	}
	// The f=8 point needs uP2+A1+D3+C1+C2 = 5+20+3+1+1 = 30.
	last := multi.Objectives[len(multi.Objectives)-1]
	if last[1] != 0.125 || last[0] != 30 {
		t.Errorf("last point = %v, want (30, 0.125)", last)
	}
}

// TestExploreMultiPruningSound: disabling the dominance pruning does
// not change the front.
func TestExploreMultiPruningSound(t *testing.T) {
	s := models.Decoder()
	objs := []Objective{CostObjective(), InvFlexibilityObjective()}
	with := Run(context.Background(), s, Options{}, Request{Kind: KindMulti, Objectives: objs})
	without := Run(context.Background(), s, Options{DisableFlexBound: true}, Request{Kind: KindMulti, Objectives: objs})
	if len(with.Front) != len(without.Front) {
		t.Fatalf("front sizes differ: %d vs %d", len(with.Front), len(without.Front))
	}
	for i := range with.Objectives {
		for k := range with.Objectives[i] {
			if with.Objectives[i][k] != without.Objectives[i][k] {
				t.Errorf("point %d differs", i)
			}
		}
	}
	if with.Stats.Attempted >= without.Stats.Attempted {
		t.Error("pruning should reduce attempts")
	}
}

// TestExploreMultiWeightedPruningSound: the 1/flexibility lower bound
// comes from the run's own estimate, which follows Options.Weighted, so
// weighted pruning drops no Pareto point: the pruned front equals the
// unpruned one and, as (cost, 1/f) vectors, weighted Explore's front.
func TestExploreMultiWeightedPruningSound(t *testing.T) {
	s := models.SetTopBox()
	s.Problem.ClusterByID("gI").Attrs = hgraph.Attrs{spec.AttrWeight: 2}
	opts := Options{Weighted: true}
	with := Run(context.Background(), s, opts, Request{Kind: KindMulti})
	unpruned := opts
	unpruned.DisableFlexBound = true
	without := Run(context.Background(), s, unpruned, Request{Kind: KindMulti})
	if !reflect.DeepEqual(with.Objectives, without.Objectives) {
		t.Errorf("pruned front %v differs from the unpruned %v", with.Objectives, without.Objectives)
	}
	var want [][]float64
	for _, im := range Explore(s, opts).Front {
		want = append(want, pareto.CostFlexObjectives(im.Cost, im.Flexibility))
	}
	if !reflect.DeepEqual(with.Objectives, want) {
		t.Errorf("weighted multi front %v differs from weighted Explore's %v", with.Objectives, want)
	}
}

// TestMeanLatencyFollowsRunTiming: the tri-objective front's mean
// latencies are searched under the run's timing policy. Under a looser
// policy than the paper's the explorer binds loads the 69% test
// rejects, so a latency re-binding under that test found no binding and
// reported +Inf for some front points (3 of 18 on the Set-Top box
// without timing).
func TestMeanLatencyFollowsRunTiming(t *testing.T) {
	tri := []Objective{CostObjective(), InvFlexibilityObjective(), MeanLatencyObjective()}
	for _, sub := range []struct {
		name string
		s    *spec.Spec
	}{
		{"settop", models.SetTopBox()},
		{"sdr", models.SDR()},
		{"synthetic7", models.Synthetic(models.DefaultSynthetic(7))},
	} {
		for _, timing := range []bind.TimingPolicy{bind.TimingNone, bind.TimingEDF, bind.TimingPaper} {
			r := Run(context.Background(), sub.s, Options{Timing: timing}, Request{Kind: KindMulti, Objectives: tri})
			if len(r.Front) == 0 {
				t.Fatalf("%s/%v: empty front", sub.name, timing)
			}
			for i, im := range r.Front {
				// The mean of each behaviour's latency-optimal binding
				// under the run's policy.
				want := 0.0
				for _, beh := range im.Behaviours {
					fp, err := sub.s.Problem.Flatten(beh.ECS.Selection)
					if err != nil {
						t.Fatal(err)
					}
					av, err := sub.s.ArchViewFor(im.Allocation, beh.ArchSelection)
					if err != nil {
						t.Fatal(err)
					}
					best, ok := bind.FindMinLatency(sub.s, fp, av, bind.Options{Timing: timing})
					if !ok {
						t.Fatalf("%s/%v: %s: a front behaviour has no binding under the run's policy", sub.name, timing, im.Allocation)
					}
					want += bind.TotalLatency(sub.s, best.Binding)
				}
				want /= float64(len(im.Behaviours))
				if got := r.Objectives[i][2]; math.IsInf(got, 1) || got != want {
					t.Errorf("%s/%v: %s mean latency %v, want %v under the run's policy", sub.name, timing, im.Allocation, got, want)
				}
			}
		}
	}
}

func TestObjectiveOnEmptyBehaviours(t *testing.T) {
	s := models.SetTopBox()
	im := &Implementation{Allocation: spec.NewAllocation("uP2"), Cost: 100, Flexibility: 0}
	if got := MeanLatencyObjective().Eval(s, im); !math.IsInf(got, 1) {
		t.Errorf("latency of behaviour-less implementation = %v, want +Inf", got)
	}
	if got := InvFlexibilityObjective().Eval(s, im); !math.IsInf(got, 1) {
		t.Errorf("1/f of zero flexibility = %v, want +Inf", got)
	}
}

func BenchmarkExploreMultiTri(b *testing.B) {
	s := models.SetTopBox()
	objs := []Objective{CostObjective(), InvFlexibilityObjective(), MeanLatencyObjective()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := Run(context.Background(), s, Options{AllBehaviours: true}, Request{Kind: KindMulti, Objectives: objs})
		if len(r.Front) == 0 {
			b.Fatal("empty front")
		}
	}
}

// TestProgressDropsEvictedSnapshots: the report copies Progress hands
// out are kept only for implementations the front still holds. A
// tri-objective Set-Top run reporting after every candidate admits
// points the front later evicts; after every report the scan keeps at
// most one copy per front point, and the final front is unchanged.
func TestProgressDropsEvictedSnapshots(t *testing.T) {
	s := models.SetTopBox()
	objs := []Objective{CostObjective(), InvFlexibilityObjective(), MeanLatencyObjective()}
	want := Run(context.Background(), s, Options{AllBehaviours: true}, Request{Kind: KindMulti, Objectives: objs})

	var sc *scan
	reported := map[*Implementation]bool{}
	emits := 0
	opts := Options{AllBehaviours: true, ProgressEvery: 1, Progress: func(p Progress) {
		emits++
		if got := len(sc.snaps); got > sc.front.Size() || got > len(p.Front) {
			t.Fatalf("cursor %d: %d report copies kept for a front of %d", p.Cursor, got, sc.front.Size())
		}
		for _, im := range p.Front {
			reported[im] = true
		}
	}}
	sc, f := newMultiScan(context.Background(), s, opts, objs)
	r := sc.run(f, sc.candidates, 1, 0)
	if emits < r.Cursor {
		t.Fatalf("%d reports for %d candidates, want one per candidate", emits, r.Cursor)
	}
	if len(reported) <= len(r.Front) {
		t.Fatalf("%d points reported, %d in the final front: no report saw an evicted point", len(reported), len(r.Front))
	}
	if !frontsEqual(r.Front, want.Front) {
		t.Errorf("front with Progress %v differs from %v", r.Front, want.Front)
	}
	var objectives [][]float64
	for _, e := range sc.front.Entries() {
		objectives = append(objectives, e.Objectives)
	}
	if !reflect.DeepEqual(objectives, want.Objectives) {
		t.Errorf("objectives with Progress %v differ from %v", objectives, want.Objectives)
	}
}
