package core

import (
	"context"
	"fmt"

	"repro/internal/alloc"
	"repro/internal/spec"
)

// Kind selects the explorer a Request runs.
type Kind int

const (
	// KindExplore is the paper's EXPLORE (see Explore), the zero Kind.
	// Under Options.Exhaustive it is the exhaustive reference scan.
	KindExplore Kind = iota
	// KindUpgrade answers the question the paper raises with Pop et
	// al. [10]: how to extend a deployed platform (Request.Base) for
	// more functionality with a guarantee that running behaviours keep
	// working. Candidates are the base's supersets; the front holds the
	// Pareto-optimal upgrades above the base implementation.
	KindUpgrade
	// KindMulti explores under an arbitrary objective vector
	// (Request.Objectives), pruning a candidate whose per-objective
	// lower bounds an archived point already dominates or matches.
	// With exactly cost and 1/flexibility its front is KindExplore's,
	// found with weaker pruning. Result.Objectives holds the vectors.
	KindMulti
	// KindRandom implements Request.Iterations seeded random samples
	// (uniform over unit subsets), keeping the Pareto archive: the
	// naive baseline. Cursor counts iterations, Scanned every draw.
	KindRandom
	// KindEvolutionary is the evolutionary baseline in the spirit of
	// the paper's reference [2] (Blickle, Teich, Thiele): allocation
	// bit-vectors bred by binary Pareto tournament on (cost,
	// 1/flexibility), with an external archive. Cursor counts
	// generations, Scanned the distinct allocations evaluated.
	KindEvolutionary
)

// Request selects the explorer Run runs and carries its inputs beyond
// Options; a kind ignores the fields it does not read. The zero Request
// is the sequential EXPLORE.
type Request struct {
	Kind Kind
	// Workers is KindExplore's worker-pool size (see ExploreParallel);
	// 1 or less evaluates every candidate on the caller's goroutine.
	Workers int
	// Base is KindUpgrade's deployed allocation.
	Base spec.Allocation
	// Objectives are KindMulti's minimized criteria, each under
	// Options.Timing (nil: cost and 1/flexibility).
	Objectives []Objective
	// Iterations is KindRandom's number of samples.
	Iterations int
	// Seed seeds KindRandom and KindEvolutionary.
	Seed int64
}

// Run runs the explorer req selects. When ctx ends, the run stops
// cleanly with its best-so-far front and Interrupted set. The
// cost-ordered kinds (explore, upgrade, multi) then stop at the first
// unevaluated candidate, Cursor: their partial front is exactly the
// Pareto set of the explored prefix, and Options.Resume continues it.
func Run(ctx context.Context, s *spec.Spec, opts Options, req Request) *Result {
	switch req.Kind {
	case KindExplore:
		return explore(ctx, s, opts, max(req.Workers, 1), 0)
	case KindUpgrade:
		return upgrade(ctx, s, opts, req.Base)
	case KindMulti:
		return exploreMulti(ctx, s, opts, req.Objectives)
	case KindRandom:
		return randomSearch(ctx, s, opts, req.Iterations, req.Seed)
	case KindEvolutionary:
		return evolutionary(ctx, s, opts, req.Seed)
	}
	panic(fmt.Sprintf("core: unknown request kind %d", req.Kind))
}

// Explore runs the paper's EXPLORE algorithm: possible resource
// allocations are inspected in order of increasing allocation cost;
// for each candidate the maximum implementable flexibility is estimated
// by a single reduction of the specification, and only candidates whose
// estimate exceeds the best implemented flexibility go to the expensive
// implementation construction (elementary cluster activations, binding,
// timing validation). Because candidates arrive in nondecreasing cost,
// a newly constructed implementation is Pareto-optimal iff its
// flexibility exceeds every flexibility implemented so far, so the
// returned front is exactly the Pareto-optimal set over the explored
// space. It is Run with the zero Request and no deadline.
func Explore(s *spec.Spec, opts Options) *Result {
	return explore(context.Background(), s, opts, 1, 0)
}

// Exhaustive returns o for the exhaustive reference scan, which
// implements every possible allocation: no flexibility bound, no
// useless-bus pruning, no stop at the maximum flexibility.
func (o Options) Exhaustive() Options {
	o.DisableFlexBound = true
	o.IncludeUselessComm = true
	o.StopAtMaxFlex = false
	return o
}

// upgrade runs KindUpgrade: EXPLORE's bound fold over the supersets of
// base, admitting only implementations above the base's flexibility.
func upgrade(ctx context.Context, s *spec.Spec, opts Options, base spec.Allocation) *Result {
	sc := newScan(ctx, s, opts)
	// The base implementation's effort is counted into the run's stats;
	// a resumed run replaces them with the snapshot's, which already
	// hold it.
	floor := 0.0
	if at := sc.ev.implementAllocation(base, &sc.scratch, &sc.res.Stats); at.ok {
		floor = at.flex
	}
	extensions := func(start int, fn func(units []int, cost float64) bool) (alloc.Stats, func() (int, bool)) {
		return sc.ev.sup.EnumerateSymbolicUnits(base, sc.allocOptions(), start, fn)
	}
	return sc.run(sc.boundFold(floor), extensions, 1, 0)
}
