package main

import (
	"sort"

	"repro/internal/alloc"
	"repro/internal/bind"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/flex"
	"repro/internal/hgraph"
	"repro/internal/pareto"
	"repro/internal/spec"
)

// replay runs EXPLORE on s through the layers' public functions and
// wraps each call in a span of tr (nil: untraced). Its loop mirrors
// core.ExploreContext and its implementation step mirrors
// core.Implement, without the evaluation caches and without the
// parallel pipeline, so a traced op attributes the work those would
// otherwise reduce. It supports the options the workloads use
// (unweighted flexibility, no budgets, no resume); replay_test.go checks
// that it returns core.Explore's front and semantic counters.
func replay(s *spec.Spec, opts core.Options, produce producer, tr *tracer) *core.Result {
	tr.begin(lOp)
	defer tr.end()
	res := &core.Result{Reason: core.ReasonCompleted}
	res.MaxFlexibility = maxFlexibility(s, tr)
	front := &pareto.Front{}
	fcur := 0.0
	maxECS := opts.MaxECS
	if maxECS <= 0 {
		maxECS = 10000 // core.Options' documented default
	}

	tr.begin(lEnumerate)
	aStats := produce(s, alloc.Options{IncludeUselessComm: opts.IncludeUselessComm}, func(c alloc.Candidate) bool {
		res.Stats.PossibleAllocations++
		res.Stats.Estimated++
		est := estimateAlloc(s, c.Allocation, tr)
		if !opts.DisableFlexBound && est <= fcur {
			res.Cursor++
			return true
		}
		res.Stats.Attempted++
		if im := implement(s, c.Allocation, opts, maxECS, &res.Stats, tr); im != nil {
			res.Stats.Feasible++
			tr.begin(lPareto)
			added := front.Add(&pareto.Entry{
				Objectives: pareto.CostFlexObjectives(im.Cost, im.Flexibility),
				Value:      im,
			})
			tr.end()
			if added && im.Flexibility > fcur {
				fcur = im.Flexibility
			}
		}
		res.Cursor++
		if opts.StopAtMaxFlex && fcur >= res.MaxFlexibility {
			res.Reason = core.ReasonMaxFlex
			return false
		}
		return true
	})
	tr.end()

	_, _, pc, _ := s.Problem.ElementCount()
	res.Stats.Scanned = aStats.Scanned
	res.Stats.AllocSpace = aStats.SearchSpace
	res.Stats.DesignSpace = aStats.SearchSpace * alloc.SearchSpace(pc)
	for _, e := range front.Entries() {
		res.Front = append(res.Front, e.Value.(*core.Implementation))
	}
	return res
}

// maxFlexibility is core.MaxFlexibility: the estimate under every unit.
func maxFlexibility(s *spec.Spec, tr *tracer) float64 {
	full := spec.Allocation{}
	for _, u := range alloc.Units(s) {
		full[u.ID] = true
	}
	return estimateAlloc(s, full, tr)
}

// estimateAlloc is core.Estimate: the flexibility of the clusters the
// allocation can support.
func estimateAlloc(s *spec.Spec, a spec.Allocation, tr *tracer) float64 {
	tr.begin(lEstimate)
	defer tr.end()
	sup := supportable(s, a, tr)
	tr.begin(lFlexibility)
	defer tr.end()
	return flex.Flexibility(s.Problem, flex.FromSet(sup))
}

func supportable(s *spec.Spec, a spec.Allocation, tr *tracer) map[hgraph.ID]bool {
	tr.begin(lSupportable)
	defer tr.end()
	return alloc.SupportableClusters(s, a)
}

// implement is core.Implement's body with each layer call in a span.
func implement(s *spec.Spec, a spec.Allocation, opts core.Options, maxECS int, stats *core.Stats, tr *tracer) *core.Implementation {
	tr.begin(lImplement)
	defer tr.end()
	sup := supportable(s, a, tr)
	feasible := map[hgraph.ID]bool{}
	var behaviours []core.Behaviour

	tr.begin(lArchView)
	var views []*spec.ArchView
	a.EnumerateArchSelections(s, func(sel hgraph.Selection) bool {
		if av, err := s.ArchViewFor(a, sel); err == nil {
			views = append(views, av)
		}
		return true
	})
	tr.end()

	tested := 0
	tr.begin(lCover)
	cover.Enumerate(s.Problem, sup, func(e cover.ECS) bool {
		tested++
		if !opts.AllBehaviours {
			novel := false
			for _, c := range e.Clusters {
				if !feasible[c] {
					novel = true
					break
				}
			}
			if !novel {
				return tested < maxECS
			}
		}
		stats.ECSTested++
		tr.begin(lFlatten)
		fp, err := s.Problem.Flatten(e.Selection)
		tr.end()
		if err != nil {
			return tested < maxECS
		}
		for _, av := range views {
			stats.BindingRuns++
			tr.begin(lBind)
			res, ok := bind.Find(s, fp, av, bind.Options{Timing: opts.Timing, MaxNodes: opts.MaxBindNodes})
			tr.end()
			stats.BindingNodes += res.Nodes
			if ok {
				for _, c := range e.Clusters {
					feasible[c] = true
				}
				behaviours = append(behaviours, core.Behaviour{
					ECS: e, ArchSelection: av.Selection, Binding: res.Binding,
				})
				break
			}
		}
		return tested < maxECS
	})
	tr.end()

	tr.begin(lFlexibility)
	implemented := flex.ActivatableClusters(s.Problem, flex.FromSet(feasible))
	f := flex.Flexibility(s.Problem, flex.FromSet(implemented))
	tr.end()
	if f <= 0 {
		return nil
	}
	clusters := make([]hgraph.ID, 0, len(implemented))
	for c := range implemented {
		clusters = append(clusters, c)
	}
	sort.Slice(clusters, func(i, j int) bool { return clusters[i] < clusters[j] })
	kept := behaviours[:0]
	for _, b := range behaviours {
		all := true
		for _, c := range b.ECS.Clusters {
			if !implemented[c] {
				all = false
				break
			}
		}
		if all {
			kept = append(kept, b)
		}
	}
	return &core.Implementation{
		Allocation:  a.Clone(),
		Cost:        a.Cost(s),
		Flexibility: f,
		Clusters:    clusters,
		Behaviours:  kept,
	}
}
