// Package activation implements hierarchical timed activation
// (Section 2 of the paper): the boolean function that assigns to each
// vertex and edge of a specification graph the value activated/not
// activated at a given time t, the four consistency rules the paper
// imposes on it, and the timed allocation (Def. 2) and timed binding
// (Def. 3) derived from it.
//
// Time-variance is represented by a Schedule: a piecewise-constant
// sequence of phases, each holding a complete problem-graph cluster
// selection, an architecture configuration and a binding. Adaptive
// systems switch phases when the environment changes; reconfigurable
// architectures switch their architecture selection.
package activation

import (
	"fmt"
	"maps"
	"sort"

	"repro/internal/bind"
	"repro/internal/hgraph"
	"repro/internal/spec"
)

// Phase is one constant interval of a timed activation: from Start
// (inclusive) until the next phase's Start, the system executes the
// given behaviour on the given architecture configuration with the
// given binding.
type Phase struct {
	Start         float64
	Selection     hgraph.Selection // problem-graph cluster selection
	ArchSelection hgraph.Selection // architecture configuration
	Binding       bind.Binding
}

// Schedule is a piecewise-constant timed activation.
type Schedule struct {
	Phases []Phase
}

// Normalize sorts phases by start time and validates monotonicity.
func (s *Schedule) Normalize() error {
	sort.SliceStable(s.Phases, func(i, j int) bool { return s.Phases[i].Start < s.Phases[j].Start })
	for i := 1; i < len(s.Phases); i++ {
		if s.Phases[i].Start == s.Phases[i-1].Start {
			return fmt.Errorf("activation: two phases start at t=%v", s.Phases[i].Start)
		}
	}
	return nil
}

// At returns the phase active at time t, or nil if t precedes the first
// phase (the system is not yet activated).
func (s *Schedule) At(t float64) *Phase {
	var cur *Phase
	for i := range s.Phases {
		if s.Phases[i].Start <= t {
			cur = &s.Phases[i]
		} else {
			break
		}
	}
	return cur
}

// Switches counts phase transitions, and those that change the
// architecture configuration (hardware reconfigurations).
func (s *Schedule) Switches() (behaviour, reconfig int) {
	for i := 1; i < len(s.Phases); i++ {
		behaviour++
		if !maps.Equal(s.Phases[i].ArchSelection, s.Phases[i-1].ArchSelection) {
			reconfig++
		}
	}
	return
}

// TimedAllocation computes Def. 2's α as the union over all phases of
// the activated architecture elements — the resources the allocation
// must pay for. Elements are reported as allocatable units: top-level
// architecture leaves plus selected architecture clusters.
func (s *Schedule) TimedAllocation(sp *spec.Spec) spec.Allocation {
	a := spec.Allocation{}
	for _, ph := range s.Phases {
		for r := range usedResources(sp, ph) {
			// Map each used resource to its allocatable unit.
			if sp.Arch.Root.Vertex(r) != nil {
				a[r] = true
				continue
			}
			// Leaf inside an architecture cluster: charge the cluster
			// selected by this phase (walk ownership upward to the
			// outermost cluster under the root).
			parent := sp.Arch.ParentCluster(r)
			for parent != nil {
				owner := sp.Arch.OwnerInterface(parent.ID)
				if owner == nil {
					break
				}
				if sp.Arch.ParentCluster(owner.ID) == sp.Arch.Root {
					a[parent.ID] = true
					break
				}
				parent = sp.Arch.ParentCluster(owner.ID)
			}
		}
	}
	return a
}

// usedResources returns the resources a phase's binding touches plus
// the communication vertices of its architecture configuration that
// link them (a conservative union: every comm vertex adjacent to two
// used resources).
func usedResources(sp *spec.Spec, ph Phase) map[hgraph.ID]bool {
	used := map[hgraph.ID]bool{}
	for _, r := range ph.Binding {
		used[r] = true
	}
	fg, err := sp.Arch.FlattenPartial(ph.ArchSelection)
	if err != nil {
		return used
	}
	adj := map[hgraph.ID]map[hgraph.ID]bool{}
	link := func(x, y hgraph.ID) {
		if adj[x] == nil {
			adj[x] = map[hgraph.ID]bool{}
		}
		adj[x][y] = true
	}
	for _, e := range fg.Edges {
		link(e.From, e.To)
		link(e.To, e.From)
	}
	for _, v := range fg.Vertices {
		if !sp.IsComm(v.ID) {
			continue
		}
		n := 0
		for r := range adj[v.ID] {
			if used[r] {
				n++
			}
		}
		if n >= 2 {
			used[v.ID] = true
		}
	}
	return used
}

// RuleViolation describes a violated hierarchical-activation rule.
type RuleViolation struct {
	Rule int // 1..4 as numbered in the paper
	Msg  string
}

// Error implements the error interface.
func (v *RuleViolation) Error() string {
	return fmt.Sprintf("activation rule %d violated: %s", v.Rule, v.Msg)
}

// CheckSelection verifies the paper's hierarchical activation rules for
// one instant of a problem graph:
//
//  1. every activated interface has exactly one selected cluster;
//  2. (by construction of Selection — a cluster's content is activated
//     with it, which Flatten realizes);
//  3. every activated edge starts and ends at an activated vertex —
//     checked by flattening, which fails if port resolution dangles;
//  4. all top-level vertices and interfaces are activated, i.e. the
//     selection is complete from the root.
//
// Selections that mention inactive interfaces or unknown clusters
// violate rule 1.
func CheckSelection(g *hgraph.Graph, sel hgraph.Selection) []*RuleViolation {
	var out []*RuleViolation
	active := map[hgraph.ID]bool{}
	var walk func(c *hgraph.Cluster)
	walk = func(c *hgraph.Cluster) {
		for _, i := range c.Interfaces {
			active[i.ID] = true
			cid, ok := sel[i.ID]
			if !ok {
				out = append(out, &RuleViolation{4,
					fmt.Sprintf("activated interface %q has no selected cluster", i.ID)})
				continue
			}
			sub := i.Cluster(cid)
			if sub == nil {
				out = append(out, &RuleViolation{1,
					fmt.Sprintf("interface %q selects unknown cluster %q", i.ID, cid)})
				continue
			}
			walk(sub)
		}
	}
	walk(g.Root)
	for iid := range sel {
		if !active[iid] {
			out = append(out, &RuleViolation{1,
				fmt.Sprintf("selection for inactive interface %q", iid)})
		}
	}
	if len(out) > 0 {
		return out
	}
	if _, err := g.Flatten(sel); err != nil {
		out = append(out, &RuleViolation{3, err.Error()})
	}
	return out
}

// CheckPhase verifies one phase end-to-end: activation rules on the
// problem side, a consistent architecture configuration, and a feasible
// timed binding (Def. 3) under the given timing policy.
func CheckPhase(sp *spec.Spec, a spec.Allocation, ph Phase, opts bind.Options) error {
	if vs := CheckSelection(sp.Problem, ph.Selection); len(vs) > 0 {
		return vs[0]
	}
	// Architecture configuration: every selected cluster must be
	// allocated, and the selection must target existing interfaces.
	for iid, cid := range ph.ArchSelection {
		if sp.Arch.InterfaceByID(iid) == nil {
			return fmt.Errorf("activation: unknown architecture interface %q", iid)
		}
		if !a[cid] {
			return fmt.Errorf("activation: architecture cluster %q selected but not allocated", cid)
		}
	}
	fp, err := sp.Problem.Flatten(ph.Selection)
	if err != nil {
		return err
	}
	av, err := sp.ArchViewFor(a, ph.ArchSelection)
	if err != nil {
		return err
	}
	return bind.Check(sp, fp, av, ph.Binding, opts)
}

// CheckSchedule verifies a whole timed activation against an
// allocation: phases are well-ordered and each phase is feasible; the
// schedule's timed allocation must be within the declared allocation.
func CheckSchedule(sp *spec.Spec, a spec.Allocation, s *Schedule, opts bind.Options) error {
	if err := s.Normalize(); err != nil {
		return err
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("activation: empty schedule (rule 4 requires an activated top level)")
	}
	for i := range s.Phases {
		if err := CheckPhase(sp, a, s.Phases[i], opts); err != nil {
			return fmt.Errorf("phase %d (t=%v): %w", i, s.Phases[i].Start, err)
		}
	}
	used := s.TimedAllocation(sp)
	if !used.Subset(a) {
		return fmt.Errorf("activation: schedule uses %v outside allocation %v", used, a)
	}
	return nil
}
