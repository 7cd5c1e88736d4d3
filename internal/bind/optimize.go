package bind

import (
	"repro/internal/hgraph"
	"repro/internal/spec"
)

// FindMinLatency searches for the feasible binding minimizing the total
// mapped execution latency — the refinement step the paper's Section 4
// motivates ("first explore different optimal solutions ..., and
// subsequently select and refine one of those solutions"): once an
// allocation is chosen from the flexibility/cost front, each behaviour
// can be re-bound for speed within the same resources.
//
// The search is branch-and-bound over the same constraint model as
// Find; the lower bound adds each unassigned process's cheapest
// candidate latency. It returns the optimum (nil Binding if
// infeasible). It is Problem.MinLatency behind the map form.
func FindMinLatency(s *spec.Spec, fp *hgraph.FlatGraph, av *spec.ArchView, opts Options) (*Result, bool) {
	p := Prepare(s, fp)
	var sc Scratch
	r, ok := p.MinLatency(av, opts, &sc)
	res := &Result{Nodes: r.Nodes, Truncated: r.Truncated}
	if ok {
		res.Binding = p.Binding(r.Binding)
	}
	return res, ok
}
