package core

import (
	"context"

	"repro/internal/alloc"
	"repro/internal/spec"
)

// Upgrade explores the incremental-design question the paper raises
// when discussing Pop et al. [10]: how to extend an already deployed
// platform for more functionality *with a guarantee* that the running
// behaviours keep working. Candidates are restricted to supersets of
// the base allocation, so every behaviour feasible on the base remains
// feasible (its bindings and timing are untouched by added resources);
// implemented flexibility is therefore monotone along the upgrade path.
//
// The returned front contains the Pareto-optimal upgrades with strictly
// more flexibility than the base implementation (the base itself is the
// front's implicit origin and is not repeated).
func Upgrade(s *spec.Spec, base spec.Allocation, opts Options) *Result {
	return UpgradeContext(context.Background(), s, base, opts)
}

// UpgradeContext is Upgrade under a context, with the same anytime
// semantics as ExploreContext: an interrupted run returns the
// Pareto-optimal upgrades over the explored cost-ordered prefix, and
// Options.Resume continues it.
func UpgradeContext(ctx context.Context, s *spec.Spec, base spec.Allocation, opts Options) *Result {
	sc := newScan(ctx, s, opts)
	// The base implementation's effort is counted into the run's stats;
	// a resumed run replaces them with the snapshot's, which already
	// hold it.
	floor := 0.0
	if at := sc.ev.implementAllocation(base, &sc.scratch, &sc.res.Stats); at.ok {
		floor = at.flex
	}
	extensions := func(start int, fn func(units []int, cost float64) bool) (alloc.Stats, func() (int, bool)) {
		return alloc.EnumerateSymbolicUnits(s, base, sc.allocOptions(), start, fn)
	}
	return sc.run(sc.boundFold(floor), extensions, 1, 0)
}
