package alloc

import (
	"math"
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
// EnumerateSymbolicRange). Enumerate is kept as its test oracle.
func EnumerateSymbolic(s *spec.Spec, opts Options, fn func(Candidate) bool) Stats {
	return EnumerateSymbolicRange(s, opts, 0, fn)
}

// EnumerateSymbolicRange is EnumerateRange's symbolic twin: the same
// possible-candidate stream and range addressing (the first start
// possible candidates are skipped without materializing their
// allocation maps), produced by pruned search instead of a 2^n scan.
// It is EnumerateSymbolicUnits with every emitted candidate
// materialized as an allocation map the callback owns.
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

// enumerateSymbolic is EnumerateSymbolicUnits with each emitted
// candidate built into an allocation map.
func enumerateSymbolic(s *spec.Spec, base spec.Allocation, opts Options, start int, fn func(Candidate) bool) Stats {
	units := Units(s)
	stats, _ := EnumerateSymbolicUnits(s, base, opts, start, func(idx []int, cost float64) bool {
		return fn(Candidate{Allocation: AllocationOf(units, idx), Cost: cost})
	})
	return stats
}

// EnumerateSymbolicUnits is the one walk behind EnumerateSymbolicRange,
// EnumerateExtensions and the explorers: the possible-allocation
// function, restricted to supersets of base (nil: no restriction) by
// conjoining each base unit's variable, walked in cost order. A base element that is not an
// allocatable unit admits no candidate at all. fn receives each
// candidate past the first start as its ascending indices into
// Units(s) and its cost; the slice is borrowed until fn returns, so a
// caller that keeps it must copy it. Building no map per candidate is
// what lets the explorers bound a candidate without allocating.
//
// length counts the rest of the stream on request, after the walk
// stopped early: it returns the number of candidates in the whole
// stream, emitted or not, whatever fn or MaxScan cut off, and false
// when that number does not fit in an int. It is the model count of
// the function the walk held, computed only when length is called.
func EnumerateSymbolicUnits(s *spec.Spec, base spec.Allocation, opts Options, start int, fn func(units []int, cost float64) bool) (stats Stats, length func() (int, bool)) {
	m, f, units := Symbolic(s)
	n := len(units)
	if !opts.IncludeUselessComm {
		f = m.Apply(boolfunc.And, f, commConstraint(s, m, units))
	}
	// SearchSpace counts the units outside base, so a base element that
	// is not an allocatable unit empties the stream without changing
	// the count.
	free := n
	if len(base) > 0 {
		pos := make(map[hgraph.ID]int, n)
		for k, u := range units {
			pos[u.ID] = k
		}
		unknown := false
		for id := range base {
			k, ok := pos[id]
			if !ok {
				unknown = true
				continue
			}
			f = m.Apply(boolfunc.And, f, m.Var(k))
			free--
		}
		if unknown {
			f = m.False()
		}
	}
	stats = Stats{SearchSpace: SearchSpace(free)}
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
			// Before the range: counted, never handed out.
			continue
		}
		if !fn(idx, cost) {
			break
		}
	}
	stats.Scanned = e.Visited()
	stats.BudgetCut = e.BudgetCut()
	return stats, func() (int, bool) { return modelCount(m, f) }
}

// modelCount returns the number of satisfying assignments of f, and
// false when it does not fit in an int. The float count is exact below
// 2^53, and a count at or above it is counted again exactly. The float
// pass is kept for its cost: counting the Set-Top box with SatCountBig
// alone adds about 17 KB and 636 allocations to a settled run
// (BenchmarkExploreCaseStudy: 196.6 KB and 2,287 allocs per op with
// the float pass, 213.6 KB and 2,923 without; 2 vCPUs, go1.24.0).
func modelCount(m *boolfunc.Manager, f boolfunc.Node) (int, bool) {
	if c := m.SatCount(f); c < 1<<53 {
		return int(c), true
	}
	c := m.SatCountBig(f)
	if !c.IsInt64() || c.Int64() > math.MaxInt {
		return 0, false
	}
	return int(c.Int64()), true
}

// AllocationOf builds the allocation map of the unit-index set idx
// over units.
func AllocationOf(units []Unit, idx []int) spec.Allocation {
	a := make(spec.Allocation, len(idx))
	for _, k := range idx {
		a[units[k].ID] = true
	}
	return a
}

// commConstraint encodes the useless-bus rule as a BDD: every allocated
// bus unit must connect at least two allocated functional units — the
// same adjacency and threshold the bitset scan tests per subset with
// scanEnv.uselessComm, here conjoined once into the characteristic
// function.
func commConstraint(s *spec.Spec, m *boolfunc.Manager, units []Unit) boolfunc.Node {
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
		vars := []int{k}
		for other := range adj[u.ID] {
			vars = append(vars, pos[other])
		}
		sort.Ints(vars)
		out = m.Apply(boolfunc.And, out, busRule(m, k, vars))
	}
	return out
}

// busRule builds "¬x_k ∨ at least two neighbours" bottom-up over vars,
// k and its neighbours in ascending order (a bus is adjacent only to
// functional units, so k appears once), with one MakeNode per node.
// Visiting vars from the last, need[c] is the rule over the variables
// visited so far, given c allocated neighbours among those not yet
// visited and, while k is not yet visited, x_k true.
func busRule(m *boolfunc.Manager, k int, vars []int) boolfunc.Node {
	need := [3]boolfunc.Node{m.False(), m.False(), m.True()}
	for i := len(vars) - 1; i >= 0; i-- {
		j := vars[i]
		for c := 0; c < 2; c++ {
			if j == k {
				need[c] = m.MakeNode(j, m.True(), need[c])
			} else {
				need[c] = m.MakeNode(j, need[c], need[c+1])
			}
		}
	}
	return need[0]
}

// CountPossibleBig returns the exact number of possible resource
// allocations as a big integer — exact at any unit count, where the
// float64 CountPossible rounds beyond 2^53.
func CountPossibleBig(s *spec.Spec) *big.Int {
	m, f, _ := Symbolic(s)
	return m.SatCountBig(f)
}
