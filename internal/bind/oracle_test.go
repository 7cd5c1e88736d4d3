package bind

import (
	"fmt"
	"sort"

	"repro/internal/hgraph"
	"repro/internal/sched"
	"repro/internal/spec"
)

// oracleFind is the map-based solver Find replaced, kept verbatim as
// the differential oracle for Problem.Solve: same search, same MRV
// order, same node counting, over hgraph.ID maps.
func oracleFind(s *spec.Spec, fp *hgraph.FlatGraph, av *spec.ArchView, opts Options) (*Result, bool) {
	res := &Result{}
	n := len(fp.Vertices)
	procs := make([]hgraph.ID, n)
	cands := make([][]hgraph.ID, n)
	pos := map[hgraph.ID]int{}
	for i, v := range fp.Vertices {
		procs[i] = v.ID
		pos[v.ID] = i
		for _, m := range s.MappingsFor(v.ID) {
			if av.Present(m.Resource) {
				cands[i] = append(cands[i], m.Resource)
			}
		}
		if len(cands[i]) == 0 {
			return res, false
		}
	}
	// MRV: bind the most constrained processes first (stable order for
	// determinism).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if len(cands[order[a]]) != len(cands[order[b]]) {
			return len(cands[order[a]]) < len(cands[order[b]])
		}
		return procs[order[a]] < procs[order[b]]
	})

	// adjacency of the flat problem graph in index space
	adj := make([][]int, n)
	for _, e := range fp.Edges {
		i, j := pos[e.From], pos[e.To]
		adj[i] = append(adj[i], j)
		adj[j] = append(adj[j], i)
	}

	assigned := make([]hgraph.ID, n) // "" = unassigned
	// tasksOn accumulates the timed load per resource.
	tasksOn := map[hgraph.ID][]sched.Task{}

	var solve func(k int) bool
	solve = func(k int) bool {
		if k == n {
			return true
		}
		idx := order[k]
		p := procs[idx]
		period := s.Period(p)
		for _, r := range cands[idx] {
			if opts.MaxNodes > 0 && res.Nodes >= opts.MaxNodes {
				res.Truncated = true
				return false
			}
			res.Nodes++
			// Communication feasibility against already-bound neighbours.
			ok := true
			for _, nb := range adj[idx] {
				if assigned[nb] != "" && !av.CanCommunicate(r, assigned[nb]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			// Timing feasibility of the partial load on r. All policies
			// are monotone in the task set, so pruning is sound.
			var saved []sched.Task
			if period > 0 {
				m := s.Mapping(p, r)
				saved = tasksOn[r]
				tasksOn[r] = append(saved, sched.Task{ID: string(p), WCET: m.Latency, Period: period})
				if !opts.Timing.test(tasksOn[r]) {
					tasksOn[r] = saved
					continue
				}
			}
			assigned[idx] = r
			if solve(k + 1) {
				return true
			}
			assigned[idx] = ""
			if period > 0 {
				tasksOn[r] = saved
			}
		}
		return false
	}
	if !solve(0) {
		return res, false
	}
	res.Binding = Binding{}
	for i, r := range assigned {
		res.Binding[procs[i]] = r
	}
	return res, true
}

// oracleCheck is the map-based validator Check replaced, kept as the
// differential oracle for Problem.Verify.
func oracleCheck(s *spec.Spec, fp *hgraph.FlatGraph, av *spec.ArchView, b Binding, opts Options) error {
	// Rule 2: each activated leaf has exactly one activated mapping edge.
	for _, v := range fp.Vertices {
		r, ok := b[v.ID]
		if !ok {
			return fmt.Errorf("bind: process %q unbound", v.ID)
		}
		if s.Mapping(v.ID, r) == nil {
			return fmt.Errorf("bind: no mapping edge %q=>%q", v.ID, r)
		}
		if !av.Present(r) {
			return fmt.Errorf("bind: resource %q not activated", r)
		}
	}
	for p := range b {
		if fp.VertexByID(p) == nil {
			return fmt.Errorf("bind: binding for inactive process %q", p)
		}
	}
	// Rule 3: every dependence is handled.
	for _, e := range fp.Edges {
		if !av.CanCommunicate(b[e.From], b[e.To]) {
			return fmt.Errorf("bind: dependence %s->%s unroutable between %q and %q",
				e.From, e.To, b[e.From], b[e.To])
		}
	}
	// Timing.
	tasksOn := map[hgraph.ID][]sched.Task{}
	for _, v := range fp.Vertices {
		period := s.Period(v.ID)
		if period <= 0 {
			continue
		}
		r := b[v.ID]
		m := s.Mapping(v.ID, r)
		tasksOn[r] = append(tasksOn[r], sched.Task{ID: string(v.ID), WCET: m.Latency, Period: period})
	}
	// Test the resources in first-bound order, following fp.Vertices,
	// so the violation reported does not depend on map order.
	for _, v := range fp.Vertices {
		r := b[v.ID]
		tasks, ok := tasksOn[r]
		if !ok {
			continue
		}
		if !opts.Timing.test(tasks) {
			return fmt.Errorf("bind: resource %q fails timing policy %v (utilization %.3f)",
				r, opts.Timing, sched.Utilization(tasks))
		}
		delete(tasksOn, r)
	}
	return nil
}

// oracleFindMinLatency is the map-based branch-and-bound FindMinLatency
// replaced, kept as the differential oracle for Problem.MinLatency.
func oracleFindMinLatency(s *spec.Spec, fp *hgraph.FlatGraph, av *spec.ArchView, opts Options) (*Result, bool) {
	res := &Result{}
	n := len(fp.Vertices)
	procs := make([]hgraph.ID, n)
	cands := make([][]hgraph.ID, n)
	lats := make([][]float64, n)
	minLat := make([]float64, n)
	pos := map[hgraph.ID]int{}
	for i, v := range fp.Vertices {
		procs[i] = v.ID
		pos[v.ID] = i
		for _, m := range s.MappingsFor(v.ID) {
			if av.Present(m.Resource) {
				cands[i] = append(cands[i], m.Resource)
				lats[i] = append(lats[i], m.Latency)
			}
		}
		if len(cands[i]) == 0 {
			return res, false
		}
		minLat[i] = lats[i][0]
		for _, l := range lats[i] {
			if l < minLat[i] {
				minLat[i] = l
			}
		}
	}
	order := oracleMRVOrder(procs, cands)
	// Suffix sums of minimal latencies along the search order.
	suffix := make([]float64, n+1)
	for k := n - 1; k >= 0; k-- {
		suffix[k] = suffix[k+1] + minLat[order[k]]
	}
	adj := make([][]int, n)
	for _, e := range fp.Edges {
		i, j := pos[e.From], pos[e.To]
		adj[i] = append(adj[i], j)
		adj[j] = append(adj[j], i)
	}

	assigned := make([]hgraph.ID, n)
	tasksOn := map[hgraph.ID][]sched.Task{}
	bestCost := -1.0
	var best Binding

	var solve func(k int, acc float64)
	solve = func(k int, acc float64) {
		if bestCost >= 0 && acc+suffix[k] >= bestCost {
			return // bound
		}
		if k == n {
			bestCost = acc
			best = Binding{}
			for i, r := range assigned {
				best[procs[i]] = r
			}
			return
		}
		idx := order[k]
		p := procs[idx]
		period := s.Period(p)
		for ci, r := range cands[idx] {
			if opts.MaxNodes > 0 && res.Nodes >= opts.MaxNodes {
				res.Truncated = true
				return
			}
			res.Nodes++
			ok := true
			for _, nb := range adj[idx] {
				if assigned[nb] != "" && !av.CanCommunicate(r, assigned[nb]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			var saved []sched.Task
			if period > 0 {
				saved = tasksOn[r]
				tasksOn[r] = append(saved, sched.Task{ID: string(p), WCET: lats[idx][ci], Period: period})
				if !opts.Timing.test(tasksOn[r]) {
					tasksOn[r] = saved
					continue
				}
			}
			assigned[idx] = r
			solve(k+1, acc+lats[idx][ci])
			assigned[idx] = ""
			if period > 0 {
				tasksOn[r] = saved
			}
		}
	}
	solve(0, 0)
	if best == nil {
		return res, false
	}
	res.Binding = best
	return res, true
}

func oracleMRVOrder(procs []hgraph.ID, cands [][]hgraph.ID) []int {
	order := make([]int, len(procs))
	for i := range order {
		order[i] = i
	}
	// Most-constrained first, stable on IDs for determinism.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if len(cands[a]) > len(cands[b]) ||
				(len(cands[a]) == len(cands[b]) && procs[a] > procs[b]) {
				order[j-1], order[j] = order[j], order[j-1]
			} else {
				break
			}
		}
	}
	return order
}
