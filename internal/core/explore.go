package core

import (
	"context"

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
	return ExploreParallelContext(ctx, s, opts, 1, 0)
}
