package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/alloc"
	"repro/internal/hgraph"
	"repro/internal/models"
	"repro/internal/pareto"
	"repro/internal/spec"
)

// TestMemoReplayAllocatesNothing: replaying a memoized binding under a
// present superset — the memo lookups and the index verifier —
// allocates nothing, and stores nothing: the superset's exact key stays
// unset, so every repeat is a replay again.
func TestMemoReplayAllocatesNothing(t *testing.T) {
	s := models.SetTopBox()
	ev := newEvaluator(s, Options{})
	w := ev.evalScratch()
	var st Stats
	var full []int
	for k := range ev.units {
		full = append(full, k)
	}
	ev.sup.SupportableUnits(full, w.sup)
	fullAvail := w.sup.Avail().Clone()

	// The first binding found feasible under a present set the full
	// allocation's view strictly extends.
	var (
		en       *ecsEntry
		cfg      *archConfig
		superset viewSlot
	)
	alloc.EnumerateSymbolicUnits(s, nil, alloc.Options{}, 0, func(units []int, _ float64) bool {
		sup := ev.sup.SupportableUnits(units, w.sup)
		avail := w.sup.Avail()
		list := ev.ecsList(sup)
		for _, c := range ev.configs(alloc.AllocationOf(ev.units, units)) {
			for i := range list {
				e := &list[i]
				if e.prob == nil {
					continue
				}
				var v viewSlot
				c.links.ViewInto(&v.av, c.sel, avail)
				if _, ok := ev.bindFor(e, c, &v, &w, &st); !ok {
					continue
				}
				c.links.ViewInto(&superset.av, c.sel, fullAvail)
				if !superset.av.PresentSet().Equal(v.av.PresentSet()) {
					en, cfg = e, c
					return false
				}
			}
		}
		return true
	})
	if en == nil {
		t.Fatal("no replayable binding found")
	}
	m, _ := ev.binds.getOrCreate(uint64(en.id)<<32|uint64(cfg.id), nil)
	if _, ok := m.exact[string(superset.av.PresentSet().KeyBytes())]; ok {
		t.Fatal("the superset's present set was solved before its replay")
	}
	replays, exact := ev.bindReplayHits.Load(), len(m.exact)
	n := testing.AllocsPerRun(100, func() {
		if _, ok := ev.bindFor(en, cfg, &superset, &w, &st); !ok {
			t.Fatal("the superset replay failed")
		}
	})
	if got := ev.bindReplayHits.Load() - replays; got != 101 {
		t.Fatalf("%d replays, want 101 (every call a replay)", got)
	}
	if got := len(m.exact); got != exact {
		t.Errorf("the replays stored %d exact keys, want none", got-exact)
	}
	if n != 0 {
		t.Errorf("a memo replay allocates %v times, want 0", n)
	}
}

// TestUnadmittedAttemptBuildsNoMap: an attempted candidate the front
// does not admit builds no map — no spec.Allocation, no Binding, no
// Clusters — and on a warm memo allocates nothing at all: its
// implemented set and picks reuse the record's buffers, and the front
// rejects its objective vector before any entry is built.
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
		alloc.EnumerateSymbolicUnits(sub.s, nil, alloc.Options{}, 0, func(units []int, _ float64) bool {
			r := &sc.rec
			var feasible bool
			n := testing.AllocsPerRun(20, func() {
				r.reset(units)
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
			alloc.EnumerateSymbolicUnits(s, nil, alloc.Options{IncludeUselessComm: true}, 0, func(units []int, _ float64) bool {
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
