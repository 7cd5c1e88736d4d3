package core

import (
	"context"

	"repro/internal/alloc"
	"repro/internal/pareto"
	"repro/internal/spec"
)

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
// space.
func Explore(s *spec.Spec, opts Options) *Result {
	return ExploreContext(context.Background(), s, opts)
}

// ExploreContext is Explore under a context: when ctx is cancelled or
// its deadline expires, the cost-ordered scan stops cleanly and the
// best-so-far front is returned with Interrupted set and Cursor at the
// first unevaluated candidate. The cost ordering makes every partial
// front exactly the Pareto set of the explored prefix, so an
// interrupted result is a valid anytime answer; continue it with
// Options.Resume.
func ExploreContext(ctx context.Context, s *spec.Spec, opts Options) *Result {
	res := &Result{MaxFlexibility: MaxFlexibility(s, opts), Reason: ReasonCompleted}
	front := &pareto.Front{}
	fcur, startCursor := seedResume(res, front, opts.Resume)
	idx := startCursor
	lastEmit := startCursor
	res.Cursor = startCursor
	// The enumeration replays the resumed prefix internally (no
	// allocation maps materialized); the prefix candidates are
	// accounted here so the running count matches a from-scratch scan.
	res.Stats.PossibleAllocations = startCursor

	ev := newEvaluator(s, opts)
	aStats := candidates(s, opts, startCursor, func(c alloc.Candidate) bool {
		res.Stats.PossibleAllocations++
		if ctx.Err() != nil {
			res.Interrupted, res.Reason = true, reasonFor(ctx)
			return false
		}
		if opts.Progress != nil && idx-lastEmit >= opts.progressEvery() {
			ev.fold(&res.Stats)
			opts.Progress(Progress{
				Cursor:         idx,
				BestFlex:       fcur,
				MaxFlexibility: res.MaxFlexibility,
				Front:          frontToImplementations(front),
				Stats:          res.Stats,
			})
			lastEmit = idx
		}
		if err := opts.Fault.Fire(SiteEstimate, idx); err != nil {
			res.Stats.Diags = append(res.Stats.Diags, Diag{
				Kind: DiagError, Site: SiteEstimate, Cursor: idx,
				Allocation: c.Allocation.String(), Message: err.Error(),
			})
			idx++
			res.Cursor = idx
			return true
		}
		if ctx.Err() != nil {
			// A Cancel failpoint fired between the two checks.
			res.Interrupted, res.Reason = true, reasonFor(ctx)
			return false
		}
		res.Stats.Estimated++
		est, sup, haveSup := ev.estimate(c.Allocation)
		if !opts.DisableFlexBound && est <= fcur {
			idx++
			res.Cursor = idx
			return true
		}
		if err := opts.Fault.Fire(SiteImplement, idx); err != nil {
			res.Stats.Diags = append(res.Stats.Diags, Diag{
				Kind: DiagError, Site: SiteImplement, Cursor: idx,
				Allocation: c.Allocation.String(), Message: err.Error(),
			})
			idx++
			res.Cursor = idx
			return true
		}
		res.Stats.Attempted++
		im := ev.implement(c.Allocation, sup, haveSup, &res.Stats)
		if im != nil {
			res.Stats.Feasible++
			if front.Add(&pareto.Entry{
				Objectives: pareto.CostFlexObjectives(im.Cost, im.Flexibility),
				Value:      im,
			}) && im.Flexibility > fcur {
				fcur = im.Flexibility
			}
		}
		idx++
		res.Cursor = idx
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

// seedResume folds a Resume snapshot into a fresh run: front entries,
// the flexibility bound, and the effort counters. Scanned and
// PossibleAllocations restart at zero because the resumed enumeration
// replays the whole prefix, so counting every candidate again yields
// the uninterrupted run's totals.
func seedResume(res *Result, front *pareto.Front, r *Resume) (fcur float64, startCursor int) {
	if r == nil {
		return 0, 0
	}
	res.Stats = r.Stats
	res.Stats.Scanned = 0
	res.Stats.PossibleAllocations = 0
	// Pipeline gauges describe a single run, not the cumulative scan; a
	// resumed run (sequential or parallel) starts them afresh.
	res.Stats.Pipeline = PipelineStats{}
	for _, im := range r.Front {
		if front.Add(&pareto.Entry{
			Objectives: pareto.CostFlexObjectives(im.Cost, im.Flexibility),
			Value:      im,
		}) && im.Flexibility > fcur {
			fcur = im.Flexibility
		}
	}
	return fcur, r.Cursor
}

// candidates streams the cost-ordered possible allocations from the
// candidate index start on: the one producer every explorer runs, the
// symbolic walk over the possible-allocation BDD.
func candidates(s *spec.Spec, opts Options, start int, fn func(alloc.Candidate) bool) alloc.Stats {
	return alloc.EnumerateSymbolicRange(s, alloc.Options{
		IncludeUselessComm: opts.IncludeUselessComm,
		MaxScan:            opts.MaxScan,
	}, start, fn)
}

// finishStats folds the producer's statistics into st and returns the
// termination reason: a run that would otherwise have completed is
// scan-bound when the MaxScan budget cut the candidate stream short.
func finishStats(s *spec.Spec, st *Stats, reason Reason, aStats alloc.Stats) Reason {
	_, _, pc, _ := s.Problem.ElementCount()
	st.Scanned = aStats.Scanned
	st.AllocSpace = aStats.SearchSpace
	st.DesignSpace = aStats.SearchSpace * alloc.SearchSpace(pc)
	if reason == ReasonCompleted && aStats.BudgetCut {
		return ReasonScanBound
	}
	return reason
}

func frontToImplementations(front *pareto.Front) []*Implementation {
	var out []*Implementation
	for _, e := range front.Entries() {
		out = append(out, e.Value.(*Implementation))
	}
	return out
}
