package core

import (
	"context"
	"math/rand"

	"repro/internal/alloc"
	"repro/internal/bitset"
	"repro/internal/pareto"
	"repro/internal/spec"
)

// Exhaustive explores every possible resource allocation (no
// flexibility bound, no useless-bus pruning) and implements each one.
// It is the reference the paper's pruning claims are measured against:
// EXPLORE must return the same front with far fewer solver invocations.
func Exhaustive(s *spec.Spec, opts Options) *Result {
	return ExhaustiveContext(context.Background(), s, opts)
}

// ExhaustiveContext is Exhaustive under a context; the anytime
// semantics (clean interruption, prefix-exact partial front, resume)
// are inherited from ExploreContext.
func ExhaustiveContext(ctx context.Context, s *spec.Spec, opts Options) *Result {
	opts.DisableFlexBound = true
	opts.IncludeUselessComm = true
	opts.StopAtMaxFlex = false
	return ExploreContext(ctx, s, opts)
}

// RandomSearch samples iters random allocations (uniform over unit
// subsets) and implements each, keeping the Pareto archive. It is the
// naive baseline for explorer comparisons.
func RandomSearch(s *spec.Spec, opts Options, iters int, seed int64) *Result {
	return RandomSearchContext(context.Background(), s, opts, iters, seed)
}

// RandomSearchContext is RandomSearch under a context: cancellation or
// deadline expiry stops the sampling loop cleanly and returns the
// best-so-far archive with Interrupted set; Cursor counts the
// iterations performed.
func RandomSearchContext(ctx context.Context, s *spec.Spec, opts Options, iters int, seed int64) *Result {
	rng := rand.New(rand.NewSource(seed))
	units := alloc.Units(s)
	ev := newEvaluator(s, opts)
	res := &Result{MaxFlexibility: MaxFlexibility(s, opts), Reason: ReasonCompleted}
	res.Stats.AllocSpace = alloc.SearchSpace(len(units))
	_, _, pc, _ := s.Problem.ElementCount()
	res.Stats.DesignSpace = res.Stats.AllocSpace * alloc.SearchSpace(pc)
	front := &pareto.Front{}
	seen := map[string]bool{}
	w := ev.evalScratch()
	var idx []int
	for i := 0; i < iters; i++ {
		if ctx.Err() != nil {
			res.Interrupted, res.Reason = true, reasonFor(ctx)
			break
		}
		res.Cursor = i + 1
		a := spec.Allocation{}
		idx = idx[:0]
		for k, u := range units {
			if rng.Intn(2) == 0 {
				a[u.ID] = true
				idx = append(idx, k)
			}
		}
		res.Stats.Scanned++
		key := a.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		if !alloc.Possible(s, a) {
			continue
		}
		res.Stats.PossibleAllocations++
		res.Stats.Attempted++
		r := candRec{units: idx, a: a}
		if r.att = ev.implement(idx, bitset.Set{}, false, &w, &res.Stats); r.att.ok {
			res.Stats.Feasible++
			ev.admit(front, pareto.CostFlexObjectives(r.att.cost, r.att.flex), &r)
		}
	}
	ev.fold(&res.Stats)
	res.Front = frontToImplementations(front)
	return res
}

// EAConfig parameterizes the evolutionary baseline.
type EAConfig struct {
	Seed        int64
	Population  int     // default 24
	Generations int     // default 40
	CrossoverP  float64 // default 0.9
	MutationP   float64 // per-bit; default 1/#units
}

func (c EAConfig) withDefaults(nUnits int) EAConfig {
	if c.Population <= 0 {
		c.Population = 24
	}
	if c.Generations <= 0 {
		c.Generations = 40
	}
	if c.CrossoverP <= 0 {
		c.CrossoverP = 0.9
	}
	if c.MutationP <= 0 && nUnits > 0 {
		c.MutationP = 1.0 / float64(nUnits)
	}
	return c
}

// Evolutionary runs a multi-objective evolutionary exploration in the
// spirit of the paper's reference [2] (Blickle, Teich, Thiele:
// system-level synthesis using evolutionary algorithms): individuals
// are allocation bit-vectors, fitness is the (cost, 1/flexibility)
// pair, selection is binary tournament on Pareto dominance with the
// archive kept externally. It trades the exactness of EXPLORE for
// metaheuristic scalability; the comparison benchmark (experiment E11)
// measures what that trade costs on the case study.
func Evolutionary(s *spec.Spec, opts Options, cfg EAConfig) *Result {
	return EvolutionaryContext(context.Background(), s, opts, cfg)
}

// EvolutionaryContext is Evolutionary under a context: cancellation or
// deadline expiry stops the evolution at a generation boundary and
// returns the archive accumulated so far with Interrupted set; Cursor
// counts the generations completed.
func EvolutionaryContext(ctx context.Context, s *spec.Spec, opts Options, cfg EAConfig) *Result {
	units := alloc.Units(s)
	cfg = cfg.withDefaults(len(units))
	rng := rand.New(rand.NewSource(cfg.Seed))
	// The EA revisits allocations across generations (beyond what its
	// own genome cache dedups), so the evaluation caches pay off even in
	// a sampling explorer.
	ev := newEvaluator(s, opts)

	res := &Result{MaxFlexibility: MaxFlexibility(s, opts), Reason: ReasonCompleted}
	res.Stats.AllocSpace = alloc.SearchSpace(len(units))
	_, _, pc, _ := s.Problem.ElementCount()
	res.Stats.DesignSpace = res.Stats.AllocSpace * alloc.SearchSpace(pc)
	front := &pareto.Front{}

	type genome []bool
	cache := map[string][2]float64{} // allocation -> (cost, flex); flex<0 = infeasible

	w := ev.evalScratch()
	var idx []int
	evaluate := func(g genome) (cost, f float64) {
		a := spec.Allocation{}
		idx = idx[:0]
		for i, on := range g {
			if on {
				a[units[i].ID] = true
				idx = append(idx, i)
			}
		}
		key := a.String()
		if v, ok := cache[key]; ok {
			return v[0], v[1]
		}
		res.Stats.Scanned++
		cost = a.Cost(s)
		f = -1
		if alloc.Possible(s, a) {
			res.Stats.PossibleAllocations++
			res.Stats.Attempted++
			r := candRec{units: idx, a: a}
			if r.att = ev.implement(idx, bitset.Set{}, false, &w, &res.Stats); r.att.ok {
				res.Stats.Feasible++
				f = r.att.flex
				ev.admit(front, pareto.CostFlexObjectives(r.att.cost, r.att.flex), &r)
			}
		}
		cache[key] = [2]float64{cost, f}
		return cost, f
	}
	objectives := func(g genome) []float64 {
		cost, f := evaluate(g)
		if f < 0 {
			// Infeasible: strictly dominated by everything feasible.
			return []float64{cost + 1e9, 1e9}
		}
		return pareto.CostFlexObjectives(cost, f)
	}

	pop := make([]genome, cfg.Population)
	for i := range pop {
		g := make(genome, len(units))
		for j := range g {
			g[j] = rng.Intn(2) == 0
		}
		pop[i] = g
	}
	tournament := func() genome {
		a, b := pop[rng.Intn(len(pop))], pop[rng.Intn(len(pop))]
		oa, ob := objectives(a), objectives(b)
		switch {
		case pareto.Dominates(oa, ob):
			return a
		case pareto.Dominates(ob, oa):
			return b
		case rng.Intn(2) == 0:
			return a
		default:
			return b
		}
	}
	for gen := 0; gen < cfg.Generations; gen++ {
		if ctx.Err() != nil {
			res.Interrupted, res.Reason = true, reasonFor(ctx)
			ev.fold(&res.Stats)
			res.Front = frontToImplementations(front)
			return res
		}
		res.Cursor = gen + 1
		next := make([]genome, 0, cfg.Population)
		for len(next) < cfg.Population {
			p1, p2 := tournament(), tournament()
			child := make(genome, len(units))
			if rng.Float64() < cfg.CrossoverP {
				for j := range child {
					if rng.Intn(2) == 0 {
						child[j] = p1[j]
					} else {
						child[j] = p2[j]
					}
				}
			} else {
				copy(child, p1)
			}
			for j := range child {
				if rng.Float64() < cfg.MutationP {
					child[j] = !child[j]
				}
			}
			next = append(next, child)
		}
		pop = next
	}
	// Final evaluation of the last generation.
	for _, g := range pop {
		if ctx.Err() != nil {
			res.Interrupted, res.Reason = true, reasonFor(ctx)
			break
		}
		evaluate(g)
	}
	ev.fold(&res.Stats)
	res.Front = frontToImplementations(front)
	return res
}
