package core

import (
	"context"
	"math"

	"repro/internal/alloc"
	"repro/internal/bind"
	"repro/internal/bitset"
	"repro/internal/pareto"
	"repro/internal/spec"
)

// Objective is one minimized criterion evaluated on an implementation.
// The paper's Section 4 motivates more than two objectives ("execution
// time, cost, area, power consumption, weight, etc."); ExploreMulti
// generalizes the flexibility/cost exploration to any objective vector.
type Objective struct {
	Name string
	// Eval extracts the minimized value.
	Eval func(s *spec.Spec, im *Implementation) float64
	// LowerBound, if non-nil, bounds the best achievable value for any
	// implementation of the given allocation; used for dominance
	// pruning. A nil LowerBound contributes 0 (no pruning power).
	LowerBound func(s *spec.Spec, a spec.Allocation) float64
}

// CostObjective minimizes the allocation cost.
func CostObjective() Objective {
	return Objective{
		Name: "cost",
		Eval: func(s *spec.Spec, im *Implementation) float64 { return im.Cost },
		LowerBound: func(s *spec.Spec, a spec.Allocation) float64 {
			return a.Cost(s)
		},
	}
}

// InvFlexibilityObjective minimizes 1/flexibility (the paper's second
// criterion).
func InvFlexibilityObjective() Objective {
	return Objective{
		Name: "1/flexibility",
		Eval: func(s *spec.Spec, im *Implementation) float64 {
			if im.Flexibility <= 0 {
				return math.Inf(1)
			}
			return 1 / im.Flexibility
		},
		LowerBound: func(s *spec.Spec, a spec.Allocation) float64 {
			est := Estimate(s, a, Options{})
			if est <= 0 {
				return math.Inf(1)
			}
			return 1 / est
		},
	}
}

// MeanLatencyObjective minimizes the mean, over implemented behaviours,
// of the latency-optimal total execution time — the refinement
// criterion: a platform that is flexible *and* fast.
func MeanLatencyObjective() Objective {
	return Objective{
		Name: "mean-latency",
		Eval: func(s *spec.Spec, im *Implementation) float64 {
			if len(im.Behaviours) == 0 {
				return math.Inf(1)
			}
			total := 0.0
			for _, beh := range im.Behaviours {
				fp, err := s.Problem.Flatten(beh.ECS.Selection)
				if err != nil {
					return math.Inf(1)
				}
				av, err := s.ArchViewFor(im.Allocation, beh.ArchSelection)
				if err != nil {
					return math.Inf(1)
				}
				best, ok := bind.FindMinLatency(s, fp, av, bind.Options{Timing: bind.TimingPaper})
				if !ok {
					return math.Inf(1)
				}
				total += bind.TotalLatency(s, best.Binding)
			}
			return total / float64(len(im.Behaviours))
		},
	}
}

// ResourceSumObjective minimizes the sum of a numeric attribute (e.g. a
// "power" annotation) over the allocated resources.
func ResourceSumObjective(attr string) Objective {
	sum := func(s *spec.Spec, a spec.Allocation) float64 {
		total := 0.0
		for _, r := range a.Resources(s) {
			if v := s.Arch.VertexByID(r); v != nil {
				total += v.Attrs.GetDefault(attr, 0)
			}
		}
		return total
	}
	return Objective{
		Name: attr,
		Eval: func(s *spec.Spec, im *Implementation) float64 {
			return sum(s, im.Allocation)
		},
		LowerBound: sum,
	}
}

// MultiResult is the outcome of a multi-objective exploration.
type MultiResult struct {
	// Front holds the non-dominated implementations with their
	// objective vectors (parallel slices, sorted lexicographically by
	// vector).
	Front      []*Implementation
	Objectives [][]float64
	Names      []string
	// Interrupted/Reason/Cursor carry the anytime-termination state,
	// with the same semantics as Result: an interrupted front is the
	// exact non-dominated set of the explored cost-ordered prefix.
	Interrupted bool
	Reason      Reason
	Cursor      int
	Stats       Stats
}

// ExploreMulti explores the possible resource allocations under an
// arbitrary objective vector. Candidates still arrive in nondecreasing
// cost; a candidate is pruned when its best-case vector (per-objective
// lower bounds) is already dominated or matched by an archived point.
// With exactly {CostObjective, InvFlexibilityObjective} the result
// coincides with Explore (property-tested), but the pruning is weaker
// than EXPLORE's scalar bound, which exploits the cost ordering.
func ExploreMulti(s *spec.Spec, opts Options, objectives []Objective) *MultiResult {
	return ExploreMultiContext(context.Background(), s, opts, objectives)
}

// ExploreMultiContext is ExploreMulti under a context: cancellation or
// deadline expiry stops the cost-ordered scan cleanly and returns the
// best-so-far front with Interrupted set and Cursor at the first
// unevaluated candidate.
func ExploreMultiContext(ctx context.Context, s *spec.Spec, opts Options, objectives []Objective) *MultiResult {
	if len(objectives) == 0 {
		objectives = []Objective{CostObjective(), InvFlexibilityObjective()}
	}
	res := &MultiResult{Reason: ReasonCompleted}
	for _, o := range objectives {
		res.Names = append(res.Names, o.Name)
	}
	front := &pareto.Front{}
	ev := newEvaluator(s, opts)
	aStats := candidates(s, opts, 0, func(c alloc.Candidate) bool {
		if ctx.Err() != nil {
			res.Interrupted, res.Reason = true, reasonFor(ctx)
			return false
		}
		res.Stats.PossibleAllocations++
		res.Cursor++
		res.Stats.Estimated++
		if !opts.DisableFlexBound {
			best := make([]float64, len(objectives))
			for i, o := range objectives {
				if o.LowerBound != nil {
					best[i] = o.LowerBound(s, c.Allocation)
				}
			}
			if front.DominatesPoint(best) {
				return true
			}
		}
		res.Stats.Attempted++
		im := ev.implement(c.Allocation, bitset.Set{}, false, &res.Stats)
		if im == nil {
			return true
		}
		res.Stats.Feasible++
		vec := make([]float64, len(objectives))
		for i, o := range objectives {
			vec[i] = o.Eval(s, im)
		}
		front.Add(&pareto.Entry{Objectives: vec, Value: im})
		return true
	})
	ev.fold(&res.Stats)
	res.Reason = finishStats(s, &res.Stats, res.Reason, aStats)
	for _, e := range front.Entries() {
		res.Front = append(res.Front, e.Value.(*Implementation))
		res.Objectives = append(res.Objectives, e.Objectives)
	}
	return res
}
