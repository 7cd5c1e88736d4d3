package core

import (
	"context"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/alloc"
	"repro/internal/bitset"
	"repro/internal/hgraph"
	"repro/internal/models"
	"repro/internal/pareto"
	"repro/internal/spec"
)

// TestMemoReplayAllocatesNothing: replaying a memoized feasible
// verdict under a present superset — the memo lookups alone — allocates
// nothing, and stores nothing: the memo keeps no verdict for the
// superset, so every repeat is a replay again.
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

	// The first verdict found feasible under a present set the full
	// allocation's view strictly extends.
	var (
		en       *ecsEntry
		cfg      *archConfig
		superset viewSlot
	)
	alloc.NewSupporter(s).EnumerateSymbolicUnits(nil, alloc.Options{}, 0, func(units []int, _ float64) bool {
		sup := ev.sup.SupportableUnits(units, w.sup)
		avail := w.sup.Avail()
		list := ev.ecsList(sup)
		for _, c := range ev.configs(alloc.AllocationOf(ev.units, units)) {
			for _, e := range list {
				if e.prob == nil {
					continue
				}
				var v viewSlot
				v.build(c, avail)
				if !ev.bindFor(e, c, &v, &w, &st) {
					continue
				}
				superset.build(c, fullAvail)
				if !superset.av.PresentSet().Equal(v.av.PresentSet()) {
					en, cfg = e, c
					return false
				}
			}
		}
		return true
	})
	if en == nil {
		t.Fatal("no replayable verdict found")
	}
	m := cfg.memo(en.id)
	if _, hit := m.lookup(superset.av.PresentSet(), false); hit == memoExact {
		t.Fatal("the superset's present set was solved before its replay")
	}
	replays, stored := ev.bindReplayHits.Load(), m.n
	n := testing.AllocsPerRun(100, func() {
		if !ev.bindFor(en, cfg, &superset, &w, &st) {
			t.Fatal("the superset replay failed")
		}
	})
	if got := ev.bindReplayHits.Load() - replays; got != 101 {
		t.Fatalf("%d replays, want 101 (every call a replay)", got)
	}
	if got := m.n; got != stored {
		t.Errorf("the replays stored %d verdicts, want none", got-stored)
	}
	if n != 0 {
		t.Errorf("a memo replay allocates %v times, want 0", n)
	}
}

// memoOver returns an empty memo whose mask is the resources 0..n-1.
func memoOver(n int) *bindMemo {
	mask := bitset.New(n)
	for i := range n {
		mask.Add(i)
	}
	return &bindMemo{mask: mask}
}

// memoSet returns the present set of the given resources among 8.
func memoSet(members ...int) bitset.Set {
	s := bitset.New(8)
	for _, i := range members {
		s.Add(i)
	}
	return s
}

// TestMemoLookupOrder: a memo lookup prefers an exact hit to a proven
// infeasible superset, and that to a feasible subset, which is
// replayed; a truncated infeasibility proves nothing, a replay needs
// the caller's leave, and storing a present set already stored keeps
// the first verdict.
func TestMemoLookupOrder(t *testing.T) {
	set := memoSet
	m := memoOver(8)
	m.store(set(1), true, false)
	m.store(set(2), true, false)
	m.store(set(1, 2, 3, 4), false, false)
	m.store(set(1, 2, 5), false, true)

	for _, tc := range []struct {
		name    string
		present bitset.Set
		replay  bool
		want    bindOutcome
		hit     memoHit
	}{
		{"exact feasible", set(2), true, bindOutcome{ok: true}, memoExact},
		{"exact truncated", set(1, 2, 3, 4), true, bindOutcome{}, memoExact},
		{"exact proven, though a subset replays", set(1, 2, 5), true, bindOutcome{proof: true}, memoExact},
		{"proven superset before a subset replay", set(1, 2), true, bindOutcome{}, memoInfeasible},
		{"proven superset without replay", set(1, 5), false, bindOutcome{}, memoInfeasible},
		{"a feasible subset", set(1, 2, 3), true, bindOutcome{ok: true}, memoReplay},
		{"a later subset", set(2, 3), true, bindOutcome{ok: true}, memoReplay},
		{"no replay under a node bound", set(1, 2, 3), false, bindOutcome{}, memoMiss},
		{"truncated superset proves nothing", set(3, 4), true, bindOutcome{}, memoMiss},
	} {
		o, hit := m.lookup(tc.present, tc.replay)
		if o != tc.want || hit != tc.hit {
			t.Errorf("%s: lookup %v = (%+v, %d), want (%+v, %d)", tc.name, tc.present, o, hit, tc.want, tc.hit)
		}
	}
	m.store(set(1, 2, 5), true, false)
	if got, hit := m.lookup(set(1, 2, 5), true); got != (bindOutcome{proof: true}) || hit != memoExact || m.n != 4 {
		t.Errorf("a second store of a stored set left (%+v, %d) with %d verdicts, want the first (%+v) and 4", got, hit, m.n, bindOutcome{proof: true})
	}
}

// TestMemoDistinctSets: distinct present sets stay distinct. An exact
// lookup or a store finds only the very set asked for, a proven
// infeasibility on a superset stored after a feasible subset still wins
// over the replay, and a truncated infeasibility proves nothing.
func TestMemoDistinctSets(t *testing.T) {
	set := memoSet
	m := memoOver(8)
	m.store(set(1), true, false)
	m.store(set(1, 2, 3), false, true)
	m.store(set(1, 2, 3, 4, 5), false, false)
	if m.n != 3 {
		t.Fatalf("%d verdicts stored, want all 3", m.n)
	}
	for _, tc := range []struct {
		present bitset.Set
		want    bindOutcome
	}{{set(1), bindOutcome{ok: true}}, {set(1, 2, 3), bindOutcome{proof: true}}, {set(1, 2, 3, 4, 5), bindOutcome{}}} {
		got, hit := m.lookup(tc.present, true)
		if hit != memoExact || got != tc.want {
			t.Errorf("exact lookup %v = (%+v, %d), want its own verdict %+v", tc.present, got, hit, tc.want)
		}
	}
	m.store(set(1, 2, 3), true, false)
	if got, hit := m.lookup(set(1, 2, 3), true); got != (bindOutcome{proof: true}) || hit != memoExact || m.n != 3 {
		t.Errorf("storing a stored set again left (%+v, %d) with %d verdicts, want the first and 3", got, hit, m.n)
	}
	if got, hit := m.lookup(set(1, 2), true); hit != memoInfeasible || got != (bindOutcome{}) {
		t.Errorf("a subset of the proven set and superset of the feasible one: (%+v, %d), want the infeasibility", got, hit)
	}
	if got, hit := m.lookup(set(4, 5), true); hit != memoMiss {
		t.Errorf("a subset of only the truncated set: (%+v, %d), want a miss", got, hit)
	}
	if got, hit := m.lookup(set(1, 4), true); hit != memoReplay || got != (bindOutcome{ok: true}) {
		t.Errorf("a superset of the feasible set under the truncated one: (%+v, %d), want the feasible replay", got, hit)
	}
	if got, hit := m.lookup(set(6), true); hit != memoMiss {
		t.Errorf("a set unrelated to every stored one: (%+v, %d), want a miss", got, hit)
	}
}

// TestMemoStorageStaysPut: the memo's storage never moves what it
// holds. A verdict stored early still reads the same, and is the one
// an exact lookup finds, after hundreds of later stores over five
// chunks, whose first chunk is the very one the first store filled.
func TestMemoStorageStaysPut(t *testing.T) {
	const n = 300
	m := memoOver(n)
	m.store(bitset.New(n), true, false)
	first := &m.chunks[0][0]
	for i := range n {
		present := bitset.New(n)
		present.Add(i)
		m.store(present, i%3 != 0, i%3 == 0)
	}
	if len(m.chunks) != 5 || &m.chunks[0][0] != first {
		t.Fatalf("%d chunks, the first moved %v: want 5, unmoved", len(m.chunks), &m.chunks[0][0] != first)
	}
	for i := range n {
		present := bitset.New(n)
		present.Add(i)
		want := bindOutcome{ok: i%3 != 0, proof: i%3 == 0}
		if got, hit := m.lookup(present, true); hit != memoExact || got != want {
			t.Fatalf("verdict %d: exact lookup (%+v, %d), want %+v", i, got, hit, want)
		}
	}
}

// TestMemoAllocBytes: a memo's verdicts take one chunk of len(mask)+2
// words per 64 verdicts. Storing 120 verdicts over a 10-resource mask
// allocates two chunks of 12 words and a few slice headers, and nothing
// per verdict.
func TestMemoAllocBytes(t *testing.T) {
	const n = 120
	presents := make([]bitset.Set, n)
	for i := range presents {
		// Distinct sets over all ten resources.
		presents[i] = bitset.Of([]uint64{uint64(i)<<3 | uint64(i)&7})
	}
	got := uint64(math.MaxUint64)
	var m *bindMemo
	for range 3 {
		m = memoOver(10)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i, p := range presents {
			m.store(p, i%3 == 0, i%3 == 1)
		}
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	if m.n != n || len(m.chunks) != 2 {
		t.Fatalf("%d verdicts in %d chunks, want %d in 2", m.n, len(m.chunks), n)
	}
	const chunks, headers = 2 * 12 * 8, 256
	t.Logf("storing %d verdicts allocated %d bytes", n, got)
	if limit := uint64(chunks + headers); got > limit {
		t.Errorf("storing %d verdicts allocated %d bytes, want at most %d (chunks %d, headers %d)", n, got, limit, chunks, headers)
	}
}

// memoPin is one run's binding-memo outcomes and solver effort: exact,
// replay and infeasible hits, misses, BindingRuns and BindingNodes.
type memoPin struct{ exact, replay, infeasible, misses, runs, nodes int }

// TestMemoCountersPinned pins the memo's outcome counts and the solver
// effort of inline Explore and Exhaustive runs. Stats.Semantic zeroes
// them, so no differential test sees a changed lookup order — an exact
// hit taken for a replay, a replay for a solve; this test does. No
// inline run here meets a proven infeasibility on a superset (a pooled
// run, out of cost order, does, but its counts vary from run to run);
// TestMemoLookupOrder covers that branch.
func TestMemoCountersPinned(t *testing.T) {
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
	want := map[string]memoPin{
		"settop/explore":           {45, 37, 0, 94, 94, 252},
		"settop/exhaustive":        {40571, 60020, 0, 20487, 20487, 93898},
		"settop-nodes8/explore":    {51, 0, 0, 125, 125, 374},
		"settop-nodes8/exhaustive": {78908, 0, 0, 50148, 50148, 230040},
		"sdr/explore":              {12, 35, 0, 63, 63, 123},
		"sdr/exhaustive":           {677, 2464, 0, 1295, 1295, 2580},
		"synthetic2/explore":       {0, 56, 0, 42, 42, 258},
		"synthetic2/exhaustive":    {17388, 77696, 0, 9188, 9188, 41825},
		"synthetic3/explore":       {23, 133, 0, 122, 122, 525},
		"synthetic3/exhaustive":    {19071, 58564, 0, 8845, 8845, 43158},
		"exhaustive/explore":       {118, 217, 0, 133, 133, 704},
		"exhaustive/exhaustive":    {3516, 15240, 0, 1596, 1596, 9384},
	}
	for _, sub := range subjects {
		for _, ex := range []struct {
			name string
			opts Options
		}{{"explore", sub.opts}, {"exhaustive", sub.opts.Exhaustive()}} {
			r := Explore(sub.s, ex.opts)
			c := r.Stats.Cache
			got := memoPin{c.BindExactHits, c.BindReplayHits, c.BindInfeasibleHits, c.BindMisses, r.Stats.BindingRuns, r.Stats.BindingNodes}
			if key := sub.name + "/" + ex.name; got != want[key] {
				t.Errorf("%s: memo %+v, want %+v", key, got, want[key])
			}
		}
	}
}

// TestUnadmittedAttemptBuildsNoMap: an attempted candidate the front
// does not admit builds no map — no spec.Allocation, no Binding, no
// Clusters — and on a warm memo allocates nothing at all: its picks
// reuse the scratch's buffer, and the front rejects its objective
// vector before any entry is built or any witness solved.
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

// TestAttemptAllocatesNothing: on a warm memo every attempt allocates
// nothing — its picks reuse the scratch's buffer, and its witnesses wait
// for admission (materialise) — and reports the cost, flexibility and
// picks of its first, cold run.
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
