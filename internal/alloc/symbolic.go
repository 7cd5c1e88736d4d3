package alloc

import (
	"math/big"

	"repro/internal/bitset"
	"repro/internal/boolfunc"
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
	sp := NewSupporter(s)
	m := boolfunc.NewManager(len(sp.Units))
	return m, sp.symbolic(m), sp.Units
}

// symbolic builds Symbolic's function over sp.Units in m.
func (sp *Supporter) symbolic(m *boolfunc.Manager) boolfunc.Node {
	// The variable of each resource's unit, -1 for a resource no unit
	// provides.
	varOf := make([]int, sp.Resources.Len())
	for i := range varOf {
		varOf[i] = -1
	}
	for k, res := range sp.unitRes {
		res.ForEach(func(r int) bool {
			varOf[r] = k
			return true
		})
	}
	memo := make([]boolfunc.Node, len(sp.nodes))
	built := bitset.New(len(sp.nodes))
	var supportable func(i int) boolfunc.Node
	supportable = func(i int) boolfunc.Node {
		if built.Has(i) {
			return memo[i]
		}
		nd := &sp.nodes[i]
		n := m.True()
		for _, v := range nd.cluster.Vertices {
			reach := m.False()
			for _, mp := range sp.s.MappingsFor(v.ID) {
				if r, ok := sp.Resources.Index(mp.Resource); ok && varOf[r] >= 0 {
					reach = m.Apply(boolfunc.Or, reach, m.Var(varOf[r]))
				}
			}
			n = m.Apply(boolfunc.And, n, reach)
		}
		for _, subs := range nd.ifaces {
			any := m.False()
			for _, si := range subs {
				any = m.Apply(boolfunc.Or, any, supportable(si))
			}
			n = m.Apply(boolfunc.And, n, any)
		}
		memo[i] = n
		built.Add(i)
		return n
	}
	return supportable(sp.root)
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
