package alloc

import (
	"math/big"
	"sort"

	"repro/internal/boolfunc"
	"repro/internal/hgraph"
	"repro/internal/spec"
)

// EnumerateSymbolic is Enumerate driven by the symbolic characteristic
// function instead of the exhaustive subset scan: the possible-set BDD
// (conjoined with the useless-bus rule unless IncludeUselessComm) is
// walked by boolfunc's cost-ordered enumeration, which visits only
// subset-tree nodes whose subtree still contains a possible allocation.
// The emitted Candidate stream — order, costs, allocations — is
// bit-identical to Enumerate's; only the effort statistics differ (see
// EnumerateSymbolicRange). It is the explorers' candidate producer;
// Enumerate is kept as its test oracle.
func EnumerateSymbolic(s *spec.Spec, opts Options, fn func(Candidate) bool) Stats {
	return EnumerateSymbolicRange(s, opts, 0, fn)
}

// EnumerateSymbolicRange is EnumerateRange's symbolic twin: the same
// possible-candidate stream and range addressing (the first start
// possible candidates are skipped without materializing their
// allocation maps), produced by pruned search instead of a 2^n scan.
//
// Statistics differ from the bitset scan where they measure effort
// rather than the stream: Scanned counts BDD search nodes visited
// (MaxScan bounds that count, so a bounded run emits a deterministic
// prefix of the stream), and PrunedComm is always 0 because useless-bus
// subsets are never generated in the first place — the rule is
// conjoined into the characteristic function. Possible and SearchSpace
// match the bitset scan exactly.
func EnumerateSymbolicRange(s *spec.Spec, opts Options, start int, fn func(Candidate) bool) Stats {
	return enumerateSymbolic(s, nil, opts, start, fn)
}

// EnumerateExtensions generates the possible resource allocations that
// are supersets of base, in nondecreasing total cost, and passes each
// to fn until fn returns false. It supports incremental platform
// design: the deployed allocation is never shrunk, only extended. The
// stream is exactly EnumerateRange's stream filtered to supersets of
// base, so base itself comes first when it is possible (unless
// zero-cost units tie with it). SearchSpace is 2^(units outside base).
// As in EnumerateSymbolicRange, the first start extensions are skipped
// without materializing their allocation maps.
func EnumerateExtensions(s *spec.Spec, base spec.Allocation, opts Options, start int, fn func(Candidate) bool) Stats {
	return enumerateSymbolic(s, base, opts, start, fn)
}

// enumerateSymbolic walks the possible-allocation function, restricted
// to supersets of base (nil: no restriction) by conjoining each base
// unit's variable, in cost order. A base element that is not an
// allocatable unit admits no candidate at all.
func enumerateSymbolic(s *spec.Spec, base spec.Allocation, opts Options, start int, fn func(Candidate) bool) Stats {
	m, f, units := Symbolic(s)
	n := len(units)
	if !opts.IncludeUselessComm {
		f = m.Apply(boolfunc.And, f, commConstraint(s, m, units))
	}
	free := n
	if len(base) > 0 {
		pos := make(map[hgraph.ID]int, n)
		for k, u := range units {
			pos[u.ID] = k
		}
		for id := range base {
			k, ok := pos[id]
			if !ok {
				f = m.False()
				break
			}
			f = m.Apply(boolfunc.And, f, m.Var(k))
			free--
		}
	}
	stats := Stats{SearchSpace: SearchSpace(free)}
	costs := make([]float64, n)
	for i, u := range units {
		costs[i] = u.Cost
	}
	e := m.NewCostEnum(f, costs)
	e.MaxVisits = opts.MaxScan
	for {
		idx, cost, ok := e.Next()
		if !ok {
			break
		}
		stats.Possible++
		if stats.Possible <= start {
			// Before the range: counted, never materialized.
			continue
		}
		a := make(spec.Allocation, len(idx))
		for _, k := range idx {
			a[units[k].ID] = true
		}
		if !fn(Candidate{Allocation: a, Cost: cost}) {
			break
		}
	}
	stats.Scanned = e.Visited()
	stats.BudgetCut = e.BudgetCut()
	return stats
}

// commConstraint encodes the useless-bus rule as a BDD: every allocated
// bus unit must connect at least two allocated functional units — the
// same adjacency and threshold the bitset scan tests per subset with
// scanScratch.uselessComm, here conjoined once into the characteristic
// function.
func commConstraint(s *spec.Spec, m *boolfunc.Manager, units []Unit) *boolfunc.Node {
	pos := make(map[hgraph.ID]int, len(units))
	for k, u := range units {
		pos[u.ID] = k
	}
	adj := commAdjacency(s, units)
	out := m.True()
	for k, u := range units {
		if !u.Comm {
			continue
		}
		var neigh []int
		for other := range adj[u.ID] {
			neigh = append(neigh, pos[other])
		}
		sort.Ints(neigh)
		// at-least-two as the usual one/two accumulation chain.
		one, two := m.False(), m.False()
		for _, j := range neigh {
			x := m.Var(j)
			two = m.Apply(boolfunc.Or, two, m.Apply(boolfunc.And, one, x))
			one = m.Apply(boolfunc.Or, one, x)
		}
		out = m.Apply(boolfunc.And, out, m.Apply(boolfunc.Or, m.NotVar(k), two))
	}
	return out
}

// CountPossibleBig returns the exact number of possible resource
// allocations as a big integer — exact at any unit count, where the
// float64 CountPossible rounds beyond 2^53.
func CountPossibleBig(s *spec.Spec) *big.Int {
	m, f, _ := Symbolic(s)
	return m.SatCountBig(f)
}
