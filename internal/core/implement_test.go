package core

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/alloc"
	"repro/internal/hgraph"
	"repro/internal/models"
	"repro/internal/pareto"
	"repro/internal/spec"
)

// effortPin is one run's solver effort: BindingRuns and BindingNodes.
type effortPin struct{ runs, nodes int }

// TestSolverEffortPinned pins the solver effort of inline Explore and
// Exhaustive runs. Stats.Semantic zeroes it, so no differential test
// sees a binding decision solved twice, or one skipped; this test does.
func TestSolverEffortPinned(t *testing.T) {
	exhaustive, _ := exhaustiveSpec()
	subjects := []struct {
		name string
		s    *spec.Spec
		opts Options
	}{
		{"settop", models.SetTopBox(), Options{}},
		{"settop-nodes8", models.SetTopBox(), Options{MaxBindNodes: 8}},
		{"sdr", models.SDR(), Options{}},
		{"synthetic2", models.Synthetic(models.DefaultSynthetic(2)), Options{}},
		{"synthetic3", models.Synthetic(models.DefaultSynthetic(3)), Options{}},
		{"exhaustive", exhaustive, Options{}},
	}
	want := map[string]effortPin{
		"settop/explore":           {176, 525},
		"settop/exhaustive":        {121078, 656702},
		"settop-nodes8/explore":    {176, 525},
		"settop-nodes8/exhaustive": {129056, 606336},
		"sdr/explore":              {110, 237},
		"sdr/exhaustive":           {4436, 10904},
		"synthetic2/explore":       {98, 632},
		"synthetic2/exhaustive":    {104272, 659312},
		"synthetic3/explore":       {278, 1351},
		"synthetic3/exhaustive":    {86480, 478304},
		"exhaustive/explore":       {468, 2447},
		"exhaustive/exhaustive":    {20352, 121168},
	}
	for _, sub := range subjects {
		for _, ex := range []struct {
			name string
			opts Options
		}{{"explore", sub.opts}, {"exhaustive", sub.opts.Exhaustive()}} {
			r := Explore(sub.s, ex.opts)
			got := effortPin{r.Stats.BindingRuns, r.Stats.BindingNodes}
			if key := sub.name + "/" + ex.name; got != want[key] {
				t.Errorf("%s: solver effort %+v, want %+v", key, got, want[key])
			}
		}
	}
}

// TestUnadmittedAttemptBuildsNoMap: an attempted candidate the front
// does not admit builds no map — no spec.Allocation, no Binding, no
// Clusters — and once the caches hold its lists allocates nothing at
// all: its picks and solves reuse the scratch's buffers, and the front
// rejects its objective vector before any entry is built or any witness
// solved.
func TestUnadmittedAttemptBuildsNoMap(t *testing.T) {
	const want = 0
	for _, sub := range []struct {
		name string
		s    *spec.Spec
	}{
		{"settop", models.SetTopBox()},
		{"synthetic7", models.Synthetic(models.DefaultSynthetic(7))},
	} {
		sc := newScan(context.Background(), sub.s, Options{})
		f := sc.boundFold(0)
		sc.f = f
		// A point dominating every implementation: nothing is admitted.
		sc.front.Add(&pareto.Entry{Objectives: pareto.CostFlexObjectives(0, math.MaxFloat64)})
		checked := 0
		alloc.NewSupporter(sub.s).EnumerateSymbolicUnits(nil, alloc.Options{}, 0, func(units []int, _ float64) bool {
			r := &sc.rec
			var feasible bool
			n := testing.AllocsPerRun(20, func() {
				*r = candRec{units: units}
				sc.evalOne(r, 0, f, &sc.scratch)
				feasible = f.take(r)
			})
			if !r.attempted || !r.att.ok {
				return true
			}
			checked++
			if !feasible || sc.front.Size() != 1 {
				t.Fatalf("%s: feasible %v, front %d: want a feasible attempt the front rejects", sub.name, feasible, sc.front.Size())
			}
			if r.a != nil {
				t.Errorf("%s: the rejected attempt built its allocation map", sub.name)
			}
			if n > want {
				t.Errorf("%s %v: a rejected attempt allocates %v times, want at most %d", sub.name, units, n, want)
			}
			return checked < 40
		})
		if checked == 0 {
			t.Fatalf("%s: no attempt checked", sub.name)
		}
	}
}

// TestAttemptAllocatesNothing: once the caches hold its lists every
// attempt allocates nothing — its picks and solves reuse the scratch's
// buffers, and its witnesses wait for admission (materialise) — and
// reports the cost, flexibility and picks of its first, cold run.
func TestAttemptAllocatesNothing(t *testing.T) {
	for _, sub := range []struct {
		name string
		s    *spec.Spec
	}{
		{"settop", models.SetTopBox()},
		{"synthetic7", models.Synthetic(models.DefaultSynthetic(7))},
	} {
		ev := newEvaluator(sub.s, Options{})
		w := ev.evalScratch()
		var st Stats
		checked := 0
		alloc.NewSupporter(sub.s).EnumerateSymbolicUnits(nil, alloc.Options{}, 0, func(units []int, _ float64) bool {
			cold := ev.implement(units, ev.sup.SupportableUnits(units, w.sup), &w, &st)
			picks := slices.Clone(cold.picks)
			if cold.ok {
				checked++
				if len(picks) == 0 {
					t.Fatalf("%s %v: a feasible attempt made no pick", sub.name, units)
				}
			}
			var at attempt
			n := testing.AllocsPerRun(20, func() {
				at = ev.implement(units, ev.sup.SupportableUnits(units, w.sup), &w, &st)
			})
			if at.ok != cold.ok || at.cost != cold.cost || at.flex != cold.flex || !slices.Equal(at.picks, picks) {
				t.Errorf("%s %v: warm attempt (%v, %v, %v, %d picks), want (%v, %v, %v, %d picks)", sub.name, units,
					at.ok, at.cost, at.flex, len(at.picks), cold.ok, cold.cost, cold.flex, len(picks))
			}
			if n != 0 {
				t.Errorf("%s %v: a warm attempt allocates %v times, want 0", sub.name, units, n)
			}
			return checked < 40
		})
		if checked == 0 {
			t.Fatalf("%s: no attempt checked", sub.name)
		}
	}
}

// costSubjects are the models of the differential tests plus two
// fractional-cost architectures: TestAllocationCostDeterministic's
// three leaves, and a cluster whose own and leaf costs round
// differently when summed per unit first.
func costSubjects() []*spec.Spec {
	pb := hgraph.NewBuilder("problem", "pt")
	pb.Root().Vertex("x")
	frac := func(build func(r *hgraph.ClusterBuilder)) *spec.Spec {
		ab := hgraph.NewBuilder("arch", "t")
		build(ab.Root())
		return spec.MustNew("frac", pb.MustBuild(), ab.MustBuild(), []*spec.Mapping{{Process: "x", Resource: "r1"}})
	}
	return []*spec.Spec{
		models.SetTopBox(),
		models.Decoder(),
		models.SDR(),
		models.Synthetic(models.DefaultSynthetic(2)),
		models.Synthetic(models.DefaultSynthetic(3)),
		models.Synthetic(models.DefaultSynthetic(7)),
		frac(func(r *hgraph.ClusterBuilder) {
			r.Vertex("r1", spec.AttrCost, 0.1).Vertex("r2", spec.AttrCost, 0.2).Vertex("r3", spec.AttrCost, 0.3)
		}),
		frac(func(r *hgraph.ClusterBuilder) {
			// Allocation.Cost of {r1 s} adds 0.6, 0.6, 0 and 1e16 in
			// turn, which rounds up to 1e16+2; adding the unit cost of
			// s (0.6+0+1e16, rounded to 1e16) to 0.6 gives 1e16.
			r.Vertex("r1", spec.AttrCost, 0.6).Vertex("z", spec.AttrCost, 0.7)
			f := r.Interface("F", hgraph.Port{Name: "p"})
			f.Cluster("s").Attr(spec.AttrCost, 0.6).
				Vertex("d1", spec.AttrCost, 0).Vertex("d2", spec.AttrCost, 1e16).Bind("p", "d1")
		}),
	}
}

// TestUnitsCostMatchesAllocationCost: an attempt's cost, summed from
// its units, is Float64bits-equal to spec.Allocation.Cost on every
// subset of units the explorers can attempt.
func TestUnitsCostMatchesAllocationCost(t *testing.T) {
	for _, s := range costSubjects() {
		ev := newEvaluator(s, Options{})
		w := ev.evalScratch()
		check := func(units []int) {
			a := alloc.AllocationOf(ev.units, units)
			if got, want := ev.unitsCost(units, &w), a.Cost(s); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s %v: units cost %v, Allocation.Cost %v", s.Name, a, got, want)
			}
		}
		n := 0
		if len(ev.units) <= 8 {
			// Every subset, possible or not.
			for mask := 0; mask < 1<<len(ev.units); mask++ {
				var units []int
				for k := range ev.units {
					if mask&(1<<k) != 0 {
						units = append(units, k)
					}
				}
				check(units)
				n++
			}
		} else {
			alloc.NewSupporter(s).EnumerateSymbolicUnits(nil, alloc.Options{IncludeUselessComm: true}, 0, func(units []int, _ float64) bool {
				check(units)
				n++
				return true
			})
		}
		if n == 0 {
			t.Fatalf("%s: no candidate checked", s.Name)
		}
	}
}
