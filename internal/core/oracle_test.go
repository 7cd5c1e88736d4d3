package core

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/alloc"
	"repro/internal/bind"
	"repro/internal/bitset"
	"repro/internal/cover"
	"repro/internal/flex"
	"repro/internal/hgraph"
	"repro/internal/models"
	"repro/internal/pareto"
	"repro/internal/spec"
)

// referenceImplement is the implementation construction on allocation
// maps, without caches: it determines the supportable clusters, tests
// every elementary cluster activation over the allocation's
// architecture configurations with bind.Find, and evaluates the
// flexibility of the clusters that are part of at least one feasible
// behaviour. It returns nil when no behaviour is feasible and adds its
// search effort to stats (which may be nil). It shares no code with the
// evaluator past the spec, cover, flex and bind packages, so it is the
// independent reference Implement, ImplementAll and the explorers are
// checked against.
func referenceImplement(s *spec.Spec, a spec.Allocation, opts Options, stats *Stats) *Implementation {
	if stats == nil {
		stats = &Stats{}
	}
	supportable := alloc.SupportableClusters(s, a)
	feasible := map[hgraph.ID]bool{}
	var behaviours []Behaviour

	// Architecture configurations are enumerated once.
	var views []*spec.ArchView
	a.EnumerateArchSelections(s, func(sel hgraph.Selection) bool {
		if av, err := s.ArchViewFor(a, sel); err == nil {
			views = append(views, av)
		}
		return true
	})

	tested := 0
	cover.Enumerate(s.Problem, supportable, func(e cover.ECS) bool {
		tested++
		// Skip behaviours that cannot extend the feasible cluster set
		// (unless the caller wants the full behaviour inventory).
		if !opts.AllBehaviours {
			novel := false
			for _, c := range e.Clusters {
				if !feasible[c] {
					novel = true
					break
				}
			}
			if !novel {
				return tested < opts.maxECS()
			}
		}
		stats.ECSTested++
		fp, err := s.Problem.Flatten(e.Selection)
		if err != nil {
			return tested < opts.maxECS()
		}
		for _, av := range views {
			stats.BindingRuns++
			res, ok := bind.Find(s, fp, av, bind.Options{Timing: opts.Timing, MaxNodes: opts.MaxBindNodes})
			stats.BindingNodes += res.Nodes
			if ok {
				for _, c := range e.Clusters {
					feasible[c] = true
				}
				behaviours = append(behaviours, Behaviour{
					ECS: e, ArchSelection: av.Selection, Binding: res.Binding,
				})
				break
			}
		}
		return tested < opts.maxECS()
	})

	implemented := flex.ActivatableClusters(s.Problem, flex.FromSet(feasible))
	f := opts.flexOf(s.Problem, implemented)
	if f <= 0 {
		return nil
	}
	clusters := make([]hgraph.ID, 0, len(implemented))
	for c := range implemented {
		clusters = append(clusters, c)
	}
	sort.Slice(clusters, func(i, j int) bool { return clusters[i] < clusters[j] })
	return &Implementation{
		Allocation:  a.Clone(),
		Cost:        a.Cost(s),
		Flexibility: f,
		Clusters:    clusters,
		Behaviours:  behaviours,
	}
}

// referenceExplore is EXPLORE on allocation maps through
// referenceImplement: each possible allocation of the cost-ordered
// stream is estimated with Estimate and, unless the bound prunes it,
// implemented; once the front reaches MaxFlexibility under the bound
// the rest of the stream is counted, not estimated. opts.Fault's
// failpoints fire as in the explorers. Its BindingRuns sum the solver
// runs of every attempted candidate, with nothing reused. It supports
// neither StopAtMaxFlex nor MaxScan.
func referenceExplore(s *spec.Spec, opts Options) *Result {
	res := &Result{MaxFlexibility: MaxFlexibility(s, opts), Reason: ReasonCompleted}
	front := &pareto.Front{}
	fcur, settled := 0.0, false
	fail := func(site string, idx int, a spec.Allocation, err error) {
		res.Stats.Diags = append(res.Stats.Diags, Diag{
			Kind: DiagError, Site: site, Cursor: idx, Allocation: a.String(), Message: err.Error(),
		})
	}
	st := alloc.EnumerateSymbolicRange(s, alloc.Options{IncludeUselessComm: opts.IncludeUselessComm}, 0, func(c alloc.Candidate) bool {
		idx := res.Cursor
		res.Cursor++
		if settled {
			return true
		}
		a := c.Allocation
		if err := opts.Fault.Fire(SiteEstimate, idx); err != nil {
			fail(SiteEstimate, idx, a, err)
			return true
		}
		res.Stats.Estimated++
		if !opts.DisableFlexBound && Estimate(s, a, opts) <= fcur {
			return true
		}
		if err := opts.Fault.Fire(SiteImplement, idx); err != nil {
			fail(SiteImplement, idx, a, err)
			return true
		}
		res.Stats.Attempted++
		if im := referenceImplement(s, a, opts, &res.Stats); im != nil {
			res.Stats.Feasible++
			front.Add(&pareto.Entry{Objectives: pareto.CostFlexObjectives(im.Cost, im.Flexibility), Value: im})
			fcur = max(fcur, im.Flexibility)
			settled = !opts.DisableFlexBound && fcur >= res.MaxFlexibility
		}
		return true
	})
	res.Stats.Scanned = st.Scanned
	res.Stats.PossibleAllocations = res.Cursor
	_, _, pc, _ := s.Problem.ElementCount()
	res.Stats.AllocSpace = st.SearchSpace
	res.Stats.DesignSpace = st.SearchSpace * alloc.SearchSpace(pc)
	res.Front = frontToImplementations(front)
	return res
}

// possibleAllocations lists the specification's possible allocations in
// stream order.
func possibleAllocations(s *spec.Spec) []spec.Allocation {
	var as []spec.Allocation
	alloc.EnumerateSymbolicRange(s, alloc.Options{}, 0, func(c alloc.Candidate) bool {
		as = append(as, c.Allocation)
		return true
	})
	return as
}

// sameImplementation reports how got differs from the reference want
// ("" when it does not): allocation, cost and flexibility bits, cluster
// list, and per behaviour the ECS and, when bindings is set, the
// architecture selection and binding.
func sameImplementation(got, want *Implementation, bindings bool) string {
	switch {
	case got == nil && want == nil:
		return ""
	case got == nil || want == nil:
		return fmt.Sprintf("implementation %v, reference %v", got, want)
	case !got.Allocation.Equal(want.Allocation):
		return fmt.Sprintf("allocation %s, reference %s", got.Allocation, want.Allocation)
	case math.Float64bits(got.Cost) != math.Float64bits(want.Cost):
		return fmt.Sprintf("cost %v, reference %v", got.Cost, want.Cost)
	case math.Float64bits(got.Flexibility) != math.Float64bits(want.Flexibility):
		return fmt.Sprintf("flexibility %v, reference %v", got.Flexibility, want.Flexibility)
	case !slices.Equal(got.Clusters, want.Clusters):
		return fmt.Sprintf("clusters %v, reference %v", got.Clusters, want.Clusters)
	case len(got.Behaviours) != len(want.Behaviours):
		return fmt.Sprintf("%d behaviours, reference %d", len(got.Behaviours), len(want.Behaviours))
	}
	for i, b := range got.Behaviours {
		w := want.Behaviours[i]
		switch {
		case !reflect.DeepEqual(b.ECS, w.ECS):
			return fmt.Sprintf("behaviour %d: ECS %v, reference %v", i, b.ECS, w.ECS)
		case bindings && !maps.Equal(b.ArchSelection, w.ArchSelection):
			return fmt.Sprintf("behaviour %d: arch selection %v, reference %v", i, b.ArchSelection, w.ArchSelection)
		case bindings && !maps.Equal(b.Binding, w.Binding):
			return fmt.Sprintf("behaviour %d: binding %v, reference %v", i, b.Binding, w.Binding)
		}
	}
	return ""
}

// oracleSpecs are the specifications the evaluator is checked on over
// every possible allocation.
var oracleSpecs = []struct {
	name string
	mk   func() *spec.Spec
}{
	{"settop", models.SetTopBox},
	{"sdr", models.SDR},
	{"synthetic2", func() *spec.Spec { return models.Synthetic(models.DefaultSynthetic(2)) }},
	{"synthetic3", func() *spec.Spec { return models.Synthetic(models.DefaultSynthetic(3)) }},
	{"synthetic7", func() *spec.Spec { return models.Synthetic(models.DefaultSynthetic(7)) }},
}

// TestReplayPremise: Def. 3's rules are monotone in the present
// resources — a leaf keeps its mapping edge, communication only gains
// links, and the timing test reads only the binding — so a binding
// found on a present set holds on every superset. The fuzzing and the
// sharper estimate the roadmap plans rely on it. Over every possible
// allocation of the oracle specifications, under every timing policy,
// each (ECS, configuration) pair the allocations meet is solved on each
// present set P it is met under, and the binding found must pass
// Problem.Verify under every present set Q ⊇ P the pair is met under.
func TestReplayPremise(t *testing.T) {
	type pair struct {
		en  *ecsEntry
		cfg *archConfig
	}
	for _, sp := range oracleSpecs {
		for timing := bind.TimingPaper; timing <= bind.TimingHyperbolic; timing++ {
			t.Run(sp.name+"/"+timing.String(), func(t *testing.T) {
				t.Parallel()
				s := sp.mk()
				ev := newEvaluator(s, Options{Timing: timing})
				presents := map[pair]map[string]bitset.Set{}
				var v viewSlot
				for _, a := range possibleAllocations(s) {
					avail := ev.sup.AvailOf(a)
					list := ev.ecsList(ev.sup.Supportable(avail))
					for _, c := range ev.configs(a) {
						v.build(c, avail)
						present := v.av.PresentSet()
						for _, en := range list {
							if en.prob == nil {
								continue
							}
							k := pair{en, c}
							if presents[k] == nil {
								presents[k] = map[string]bitset.Set{}
							}
							if _, seen := presents[k][present.Key()]; !seen {
								presents[k][present.Key()] = present.Clone()
							}
						}
					}
				}
				bopts := bind.Options{Timing: timing}
				var sc bind.Scratch
				var pv, qv viewSlot
				replays := 0
				for k, sets := range presents {
					for _, p := range sets {
						pv.build(k.cfg, p)
						res, ok := k.en.prob.Solve(&pv.av, bopts, &sc)
						if !ok {
							continue
						}
						b := slices.Clone(res.Binding)
						for _, q := range sets {
							if q.Equal(p) || !p.SubsetOf(q) {
								continue
							}
							qv.build(k.cfg, q)
							if err := k.en.prob.Verify(&qv.av, b, bopts, &sc); err != nil {
								t.Fatalf("ECS %v under %s: the binding found on %v fails on its superset %v: %v", k.en.e, k.cfg.sel, p, q, err)
							}
							replays++
						}
					}
				}
				if replays == 0 {
					t.Error("no feasible binding met a present superset")
				}
			})
		}
	}
}

// TestKeptPicksAreImplemented: every pick of an attempt has all its
// clusters implemented, over every possible allocation of the oracle
// specifications, with and without the novelty skip, so every behaviour
// materialise builds lies within the implementation's clusters. It
// holds because a feasible ECS is a full activation from the root, so
// its clusters are activatable.
func TestKeptPicksAreImplemented(t *testing.T) {
	for _, sp := range oracleSpecs {
		for _, all := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/all-behaviours=%v", sp.name, all), func(t *testing.T) {
				t.Parallel()
				s := sp.mk()
				ev := newEvaluator(s, Options{AllBehaviours: all})
				w := ev.evalScratch()
				kept := 0
				for _, a := range possibleAllocations(s) {
					at := ev.implementAllocation(a, &w, &Stats{})
					for _, p := range at.picks {
						if !p.en.bits.SubsetOf(w.implemented) {
							t.Fatalf("%s: kept pick %v has a cluster outside the implemented set", a, ev.ecs(p.en).Clusters)
						}
					}
					kept += len(at.picks)
				}
				if kept == 0 {
					t.Error("no attempt kept a pick")
				}
			})
		}
	}
}

// TestImplementMatchesOracle: over every possible allocation, Implement
// builds what the map-based reference builds — allocation, cost and
// flexibility to the bit, clusters, and behaviours down to their
// architecture selections and bindings — with the same ECSTested,
// BindingRuns and BindingNodes. ImplementAll over the same list, whose
// one evaluator has cached the flattenings and configurations of
// earlier allocations, builds the same implementations, bindings
// included.
func TestImplementMatchesOracle(t *testing.T) {
	type subject struct {
		name string
		mk   func() *spec.Spec
		opts Options
	}
	var subjects []subject
	for _, sp := range oracleSpecs {
		for _, weighted := range []bool{false, true} {
			for _, nodes := range []int{0, 8} {
				subjects = append(subjects, subject{
					fmt.Sprintf("%s/weighted=%v/nodes=%d", sp.name, weighted, nodes), sp.mk,
					Options{Weighted: weighted, MaxBindNodes: nodes},
				})
			}
		}
	}
	subjects = append(subjects, subject{"settop/all-behaviours", models.SetTopBox, Options{AllBehaviours: true}})

	for _, sub := range subjects {
		t.Run(sub.name, func(t *testing.T) {
			// Each subtest builds its own spec, so the parallel subtests
			// share none of a spec's lazily built indexes.
			t.Parallel()
			s, opts := sub.mk(), sub.opts
			as := possibleAllocations(s)
			all := ImplementAll(s, as, opts)
			if len(all) != len(as) {
				t.Fatalf("ImplementAll returned %d results for %d allocations", len(all), len(as))
			}
			feasible := 0
			for i, a := range as {
				var got, want Stats
				ref := referenceImplement(s, a, opts, &want)
				im := Implement(s, a, opts, &got)
				if d := sameImplementation(im, ref, true); d != "" {
					t.Fatalf("%s: Implement: %s", a, d)
				}
				if got.ECSTested != want.ECSTested || got.BindingRuns != want.BindingRuns || got.BindingNodes != want.BindingNodes {
					t.Fatalf("%s: Implement tested %d ECSs in %d runs of %d nodes, reference %d in %d of %d", a,
						got.ECSTested, got.BindingRuns, got.BindingNodes, want.ECSTested, want.BindingRuns, want.BindingNodes)
				}
				if d := sameImplementation(all[i], ref, true); d != "" {
					t.Fatalf("%s: ImplementAll: %s", a, d)
				}
				if ref != nil {
					feasible++
				}
			}
			if feasible == 0 {
				t.Errorf("none of %d allocations is feasible", len(as))
			}
		})
	}
}

// TestImplementAllAllocs pins what sharing one evaluator across a
// Resume front buys: re-implementing the Set-Top box's published front
// through ImplementAll allocates fewer bytes than the map-based
// reference over the same allocations.
func TestImplementAllAllocs(t *testing.T) {
	s := models.SetTopBox()
	var as []spec.Allocation
	for _, im := range Explore(s, Options{}).Front {
		as = append(as, im.Allocation)
	}
	if len(as) != 6 {
		t.Fatalf("front of %d rows, want the paper's 6", len(as))
	}
	bytesPerRun := func(f func()) uint64 {
		const runs = 20
		f()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	shared := bytesPerRun(func() { ImplementAll(s, as, Options{}) })
	ref := bytesPerRun(func() {
		for _, a := range as {
			referenceImplement(s, a, Options{}, nil)
		}
	})
	t.Logf("ImplementAll %d bytes, reference %d bytes per front", shared, ref)
	if shared >= ref {
		t.Errorf("ImplementAll allocates %d bytes per front, the reference %d: want fewer", shared, ref)
	}
}
