// Package bind solves the binding problem of the paper: assign every
// activated leaf of the (flattened) problem graph to exactly one
// allocated resource via a mapping edge, such that every data
// dependence can be handled (both endpoints on one resource, or an
// activated architecture link/bus connects the two resources), and such
// that the timing estimate accepts every resource's load.
//
// Binding is NP-complete (the paper cites [2]); this package implements
// a backtracking search with minimum-remaining-values ordering and
// incremental constraint propagation, which is exact and fast at the
// scale of platform specifications.
package bind

import (
	"fmt"
	"sort"

	"repro/internal/hgraph"
	"repro/internal/sched"
	"repro/internal/spec"
)

// Binding is a timed binding β(t) for one behaviour (one elementary
// cluster activation): it maps every activated process to the resource
// implementing it, i.e. it identifies the activated mapping edges.
type Binding map[hgraph.ID]hgraph.ID

// Clone returns a copy of the binding.
func (b Binding) Clone() Binding {
	c := make(Binding, len(b))
	for k, v := range b {
		c[k] = v
	}
	return c
}

// String renders the binding deterministically.
func (b Binding) String() string {
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	out := "{"
	for i, k := range keys {
		if i > 0 {
			out += " "
		}
		out += k + "->" + string(b[hgraph.ID(k)])
	}
	return out + "}"
}

// TimingPolicy selects the performance test applied to each resource's
// task set.
type TimingPolicy int

// Timing policies.
const (
	// TimingPaper is the paper's test: utilization ≤ 69 %.
	TimingPaper TimingPolicy = iota
	// TimingNone disables the performance check (pure binding
	// feasibility, as in the paper's "possible resource allocation"
	// stage).
	TimingNone
	// TimingLiuLayland applies the exact bound n(2^(1/n)−1).
	TimingLiuLayland
	// TimingRTA applies exact response-time analysis.
	TimingRTA
	// TimingEDF applies the exact EDF bound U ≤ 1 — what an
	// earliest-deadline-first runtime could admit on each resource.
	TimingEDF
	// TimingHyperbolic applies Bini's hyperbolic bound Π(U_i+1) ≤ 2,
	// which dominates the Liu–Layland bound while staying sufficient.
	TimingHyperbolic
)

// String implements fmt.Stringer.
func (p TimingPolicy) String() string {
	switch p {
	case TimingPaper:
		return "paper-69%"
	case TimingNone:
		return "none"
	case TimingLiuLayland:
		return "liu-layland"
	case TimingRTA:
		return "rta"
	case TimingEDF:
		return "edf"
	case TimingHyperbolic:
		return "hyperbolic"
	default:
		return fmt.Sprintf("TimingPolicy(%d)", int(p))
	}
}

func (p TimingPolicy) test(tasks []sched.Task) bool {
	switch p {
	case TimingNone:
		return true
	case TimingLiuLayland:
		return sched.LiuLaylandTest(tasks)
	case TimingRTA:
		return sched.RTATest(tasks)
	case TimingEDF:
		return sched.EDFTest(tasks)
	case TimingHyperbolic:
		return sched.HyperbolicTest(tasks)
	default:
		return sched.PaperTest(tasks)
	}
}

// Options configures the solver.
type Options struct {
	Timing TimingPolicy
	// MaxNodes bounds the number of search nodes (0 = unbounded). When
	// the bound is hit the search reports infeasible-with-timeout.
	MaxNodes int
}

// Result carries the solution and search statistics.
type Result struct {
	Binding Binding
	// Nodes is the number of assignments tried (search effort).
	Nodes int
	// Truncated reports that MaxNodes stopped the search before it
	// could prove infeasibility.
	Truncated bool
}

// Find searches for a feasible timed binding of the flattened problem
// graph fp onto the architecture view av. It returns the result and
// whether a feasible binding exists. Processes without any mapping edge
// to a present resource make the instance trivially infeasible.
func Find(s *spec.Spec, fp *hgraph.FlatGraph, av *spec.ArchView, opts Options) (*Result, bool) {
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

// Check verifies a complete binding against the paper's feasibility
// rules and the timing policy; it reports the first violation found.
// It is the library's independent validator (the solver constructs only
// bindings that pass it).
func Check(s *spec.Spec, fp *hgraph.FlatGraph, av *spec.ArchView, b Binding, opts Options) error {
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

// TotalLatency sums the mapped execution latencies of a binding — a
// simple secondary metric used by examples and benchmarks. The sum runs
// in process order, so the floating-point result does not depend on
// map iteration order.
func TotalLatency(s *spec.Spec, b Binding) float64 {
	procs := make([]hgraph.ID, 0, len(b))
	for p := range b {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	total := 0.0
	for _, p := range procs {
		if m := s.Mapping(p, b[p]); m != nil {
			total += m.Latency
		}
	}
	return total
}
