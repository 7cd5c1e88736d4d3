package alloc

import (
	"math/big"

	"repro/internal/boolfunc"
	"repro/internal/hgraph"
	"repro/internal/spec"
)

// Symbolic builds the paper's "one boolean equation" for the set of
// possible resource allocations as a BDD over the allocatable units
// (variable i ↔ Units(s)[i] allocated): an allocation is possible iff
// the problem root is supportable, where a cluster is supportable iff
// each of its vertices has a mapping edge into some allocated unit and
// each of its interfaces has a supportable cluster.
//
// The returned function characterizes the whole possible-allocation set
// without enumerating the 2^n subsets; combine with SatCount for its
// exact size and with MinCostSat for the cheapest possible allocation.
func Symbolic(s *spec.Spec) (*boolfunc.Manager, boolfunc.Node, []Unit) {
	units := Units(s)
	m := boolfunc.NewManager(len(units))
	return m, symbolic(s, units, m), units
}

// symbolic builds Symbolic's function over units in m.
func symbolic(s *spec.Spec, units []Unit, m *boolfunc.Manager) boolfunc.Node {
	// Map each reachable resource to the variable of its unit.
	varOf := map[hgraph.ID]int{}
	for i, u := range units {
		for _, r := range u.Resources {
			varOf[r] = i
		}
	}

	memo := map[hgraph.ID]boolfunc.Node{}
	var supportable func(c *hgraph.Cluster) boolfunc.Node
	supportable = func(c *hgraph.Cluster) boolfunc.Node {
		if n, ok := memo[c.ID]; ok {
			return n
		}
		n := m.True()
		for _, v := range c.Vertices {
			reach := m.False()
			for _, mp := range s.MappingsFor(v.ID) {
				if idx, ok := varOf[mp.Resource]; ok {
					reach = m.Apply(boolfunc.Or, reach, m.Var(idx))
				}
			}
			n = m.Apply(boolfunc.And, n, reach)
		}
		for _, i := range c.Interfaces {
			any := m.False()
			for _, sub := range i.Clusters {
				any = m.Apply(boolfunc.Or, any, supportable(sub))
			}
			n = m.Apply(boolfunc.And, n, any)
		}
		memo[c.ID] = n
		return n
	}
	return supportable(s.Problem.Root)
}

// CountPossible returns the number of possible resource allocations
// (unit subsets) by symbolic model counting — no subset is ever
// enumerated. The count is computed exactly (SatCountBig) and then
// rounded into a float64, which is lossless below 2^53; callers that
// may exceed 53 units should use CountPossibleBig directly.
func CountPossible(s *spec.Spec) float64 {
	f, _ := new(big.Float).SetInt(CountPossibleBig(s)).Float64()
	return f
}

// CheapestPossible returns the minimum-cost possible resource
// allocation and its cost via a single BDD walk. ok is false when no
// possible allocation exists.
func CheapestPossible(s *spec.Spec) (a spec.Allocation, cost float64, ok bool) {
	m, f, units := Symbolic(s)
	costs := make([]float64, len(units))
	for i, u := range units {
		costs[i] = u.Cost
	}
	asg, cost, ok := m.MinCostSat(f, costs)
	if !ok {
		return nil, 0, false
	}
	a = spec.Allocation{}
	for i, on := range asg {
		if on {
			a[units[i].ID] = true
		}
	}
	return a, cost, true
}
