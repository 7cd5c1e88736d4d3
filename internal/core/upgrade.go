package core

import (
	"context"

	"repro/internal/alloc"
	"repro/internal/bitset"
	"repro/internal/pareto"
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
// Pareto-optimal upgrades over the explored cost-ordered prefix.
func UpgradeContext(ctx context.Context, s *spec.Spec, base spec.Allocation, opts Options) *Result {
	res := &Result{MaxFlexibility: MaxFlexibility(s, opts), Reason: ReasonCompleted}
	front := &pareto.Front{}
	ev := newEvaluator(s, opts)

	baseImpl := ev.implement(base, bitset.Set{}, false, &res.Stats)
	fcur := 0.0
	if baseImpl != nil {
		fcur = baseImpl.Flexibility
	}
	baseFlex := fcur

	aStats := alloc.EnumerateExtensions(s, base, alloc.Options{
		IncludeUselessComm: opts.IncludeUselessComm,
		MaxScan:            opts.MaxScan,
	}, func(c alloc.Candidate) bool {
		if ctx.Err() != nil {
			res.Interrupted, res.Reason = true, reasonFor(ctx)
			return false
		}
		res.Stats.PossibleAllocations++
		res.Cursor++
		res.Stats.Estimated++
		est, sup, haveSup := ev.estimate(c.Allocation)
		if !opts.DisableFlexBound && est <= fcur {
			return true
		}
		res.Stats.Attempted++
		im := ev.implement(c.Allocation, sup, haveSup, &res.Stats)
		if im == nil || im.Flexibility <= baseFlex {
			return true
		}
		res.Stats.Feasible++
		if front.Add(&pareto.Entry{
			Objectives: pareto.CostFlexObjectives(im.Cost, im.Flexibility),
			Value:      im,
		}) && im.Flexibility > fcur {
			fcur = im.Flexibility
		}
		if opts.StopAtMaxFlex && fcur >= res.MaxFlexibility {
			res.Reason = ReasonMaxFlex
			return false
		}
		return true
	})
	ev.fold(&res.Stats)
	res.Reason = finishStats(s, &res.Stats, res.Reason, aStats)
	res.Front = frontToImplementations(front)
	return res
}
