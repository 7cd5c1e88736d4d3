package core

import (
	"context"
	"math"
	"slices"

	"repro/internal/bind"
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
	// pruning. est is the allocation's flexibility estimate under the
	// run's options (an upper bound on its implemented flexibility). A
	// nil LowerBound contributes 0 (no pruning power).
	LowerBound func(s *spec.Spec, a spec.Allocation, est float64) float64
	// timed, if non-nil, returns the objective under a run's timing
	// policy; ExploreMulti applies it to Options.Timing.
	timed func(bind.TimingPolicy) Objective
}

// CostObjective minimizes the allocation cost.
func CostObjective() Objective {
	return Objective{
		Name: "cost",
		Eval: func(s *spec.Spec, im *Implementation) float64 { return im.Cost },
		LowerBound: func(s *spec.Spec, a spec.Allocation, _ float64) float64 {
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
		LowerBound: func(_ *spec.Spec, _ spec.Allocation, est float64) float64 {
			if est <= 0 {
				return math.Inf(1)
			}
			return 1 / est
		},
	}
}

// MeanLatencyObjective minimizes the mean, over implemented behaviours,
// of the latency-optimal total execution time — the refinement
// criterion: a platform that is flexible *and* fast. The latency-optimal
// bindings obey the exploring run's timing policy (ExploreMulti applies
// Options.Timing); a direct Eval call uses bind.TimingPaper.
func MeanLatencyObjective() Objective {
	return meanLatencyObjective(bind.TimingPaper)
}

func meanLatencyObjective(timing bind.TimingPolicy) Objective {
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
				best, ok := bind.FindMinLatency(s, fp, av, bind.Options{Timing: timing})
				if !ok {
					return math.Inf(1)
				}
				total += bind.TotalLatency(s, best.Binding)
			}
			return total / float64(len(im.Behaviours))
		},
		timed: meanLatencyObjective,
	}
}

// ResourceSumObjective minimizes the sum of a numeric attribute (e.g. a
// "power" annotation) over the allocated resources.
func ResourceSumObjective(attr string) Objective {
	sum := func(s *spec.Spec, a spec.Allocation, _ float64) float64 {
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
			return sum(s, im.Allocation, 0)
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

// ExploreMultiContext is ExploreMulti under a context, with the same
// anytime semantics as ExploreContext: cancellation or deadline expiry
// stops the cost-ordered scan cleanly and returns the best-so-far front
// with Interrupted set and Cursor at the first unevaluated candidate,
// and Options.Resume continues it (the resumed front's objective
// vectors are re-evaluated from its implementations).
func ExploreMultiContext(ctx context.Context, s *spec.Spec, opts Options, objectives []Objective) *MultiResult {
	sc, f := newMultiScan(ctx, s, opts, objectives)
	r := sc.run(f, sc.candidates, 1, 0)
	res := &MultiResult{Front: r.Front, Interrupted: r.Interrupted, Reason: r.Reason, Cursor: r.Cursor, Stats: r.Stats}
	for _, o := range f.objectives {
		res.Names = append(res.Names, o.Name)
	}
	for _, e := range sc.front.Entries() {
		res.Objectives = append(res.Objectives, e.Objectives)
	}
	return res
}

// newMultiScan prepares an ExploreMulti run: the scan and its fold
// over the objectives (the default pair when there are none), each
// under the run's timing policy.
func newMultiScan(ctx context.Context, s *spec.Spec, opts Options, objectives []Objective) (*scan, *multiFold) {
	if len(objectives) == 0 {
		objectives = []Objective{CostObjective(), InvFlexibilityObjective()}
	}
	objectives = slices.Clone(objectives)
	for i, o := range objectives {
		if o.timed != nil {
			objectives[i] = o.timed(opts.Timing)
		}
	}
	sc := newScan(ctx, s, opts)
	return sc, &multiFold{s: s, ev: sc.ev, objectives: objectives, front: sc.front, lb: make([]float64, len(objectives))}
}

// multiFold is the multi-objective fold: a candidate is pruned when the
// vector of its objectives' lower bounds is dominated or matched by an
// archived point, and every feasible implementation enters the archive
// under its objective vector. The lower bounds take the candidate's
// allocation map, so prune builds it for every candidate it bounds.
type multiFold struct {
	s          *spec.Spec
	ev         *evaluator
	objectives []Objective
	front      *pareto.Front
	lb         []float64 // prune's scratch vector
	fmax       float64
}

func (f *multiFold) prune(r *candRec, est float64) bool {
	for i, o := range f.objectives {
		f.lb[i] = 0
		if o.LowerBound != nil {
			f.lb[i] = o.LowerBound(f.s, f.ev.allocation(r), est)
		}
	}
	return f.front.DominatesPoint(f.lb)
}

func (f *multiFold) take(r *candRec) (feasible bool) {
	if !r.att.ok {
		return false
	}
	// The objectives read the implementation, behaviours included, so
	// every feasible attempt is materialised before the front sees it.
	im := f.ev.materialise(r)
	vec := make([]float64, len(f.objectives))
	for i, o := range f.objectives {
		vec[i] = o.Eval(f.s, im)
	}
	f.front.Add(&pareto.Entry{Objectives: vec, Value: im})
	if im.Flexibility > f.fmax {
		f.fmax = im.Flexibility
	}
	return true
}

// done is always false: a multi-objective front has no flexibility
// ceiling that ends the scan.
func (f *multiFold) done() bool { return false }

func (f *multiFold) best() float64 { return f.fmax }
