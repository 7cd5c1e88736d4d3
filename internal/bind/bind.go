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
	"slices"
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

// timingNames maps every name a front-end accepts for a timing policy,
// its String form included, to the policy.
var timingNames = map[string]TimingPolicy{
	"paper":       TimingPaper,
	"paper-69%":   TimingPaper,
	"none":        TimingNone,
	"ll":          TimingLiuLayland,
	"liu-layland": TimingLiuLayland,
	"rta":         TimingRTA,
	"edf":         TimingEDF,
	"hyperbolic":  TimingHyperbolic,
}

// ParseTiming returns the timing policy a front-end names: paper, none,
// ll or liu-layland, rta, edf or hyperbolic, or the policy's String
// form.
func ParseTiming(name string) (TimingPolicy, error) {
	if p, ok := timingNames[name]; ok {
		return p, nil
	}
	return 0, fmt.Errorf("unknown timing policy %q (paper | none | ll | rta | edf | hyperbolic)", name)
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
// to a present resource make the instance trivially infeasible. It is
// Problem.Solve behind the map form; callers binding one flattening
// repeatedly should Prepare it once.
func Find(s *spec.Spec, fp *hgraph.FlatGraph, av *spec.ArchView, opts Options) (*Result, bool) {
	p := Prepare(s, fp)
	var sc Scratch
	r, ok := p.Solve(av, opts, &sc)
	res := &Result{Nodes: r.Nodes, Truncated: r.Truncated}
	if ok {
		res.Binding = p.Binding(r.Binding)
	}
	return res, ok
}

// Check verifies a complete binding against the paper's feasibility
// rules and the timing policy; it reports the first violation found.
// It is the library's independent validator (the solver constructs only
// bindings that pass it), and Problem.Verify behind the map form.
func Check(s *spec.Spec, fp *hgraph.FlatGraph, av *spec.ArchView, b Binding, opts Options) error {
	p := Prepare(s, fp)
	bi := make([]int32, len(p.leaves))
	// Rule 2: each activated leaf has exactly one activated mapping edge.
	for i, l := range p.leaves {
		r, ok := b[l.ID]
		if !ok {
			bi[i] = -1
		} else if ri, ok := p.res.Index(r); ok {
			bi[i] = int32(ri)
		} else {
			return fmt.Errorf("bind: no mapping edge %q=>%q", l.ID, r)
		}
		if err := p.leafErr(av, i, bi[i]); err != nil {
			return err
		}
	}
	if len(b) > len(p.leaves) {
		// Every leaf is bound, so some key is no leaf; name the smallest,
		// so the message does not depend on map order.
		var extra []hgraph.ID
		for id := range b {
			if !slices.ContainsFunc(p.leaves, func(l *spec.ProblemLeaf) bool { return l.ID == id }) {
				extra = append(extra, id)
			}
		}
		return fmt.Errorf("bind: binding for inactive process %q", slices.Min(extra))
	}
	var sc Scratch
	return p.verifyLinks(av, bi, opts, &sc)
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
