package core

import (
	"context"
	"math/rand"

	"repro/internal/alloc"
	"repro/internal/bitset"
	"repro/internal/pareto"
	"repro/internal/spec"
)

// sampled is a sample's memoised outcome: its cost, and its
// flexibility (-1 when impossible or infeasible).
type sampled struct{ cost, flex float64 }

// newSampling prepares a sampling explorer's run: a scan with no
// candidate source, fed random unit-index sets through sample instead.
func newSampling(ctx context.Context, s *spec.Spec, opts Options) *scan {
	sc := newScan(ctx, s, opts)
	sc.samples, sc.key = map[string]sampled{}, bitset.New(len(sc.ev.units))
	sc.setSpace(alloc.SearchSpace(len(sc.ev.units)))
	return sc
}

// sample evaluates the allocation given by ascending indices into
// alloc.Units(s), once per distinct set, and reports whether this call
// evaluated it (a memo miss). A possible sample is implemented with the
// supportable set of its possibility test and admitted to the front;
// only an admitted one builds its allocation map. A repeated sample
// allocates nothing.
func (sc *scan) sample(units []int) (sampled, bool) {
	sc.key.Clear()
	for _, k := range units {
		sc.key.Add(k)
	}
	if v, ok := sc.samples[string(sc.key.KeyBytes())]; ok {
		return v, false
	}
	w, st := &sc.scratch, &sc.res.Stats
	v := sampled{cost: sc.ev.unitsCost(units, w), flex: -1}
	r := &sc.rec
	*r = candRec{units: units}
	if sup := sc.ev.sup.SupportableUnits(units, w.sup); sup.Has(sc.ev.root) {
		sc.possible++
		st.Attempted++
		if r.att = sc.ev.implement(units, sup, w, st); r.att.ok {
			st.Feasible++
			v.flex = r.att.flex
			sc.ev.admit(sc.front, r.att.cost, r.att.flex, r, w)
		}
	}
	sc.samples[string(sc.key.KeyBytes())] = v
	return v, true
}

// stopped reports whether the run's context is done, and if so marks
// the result interrupted.
func (sc *scan) stopped() bool {
	if sc.ctx.Err() == nil {
		return false
	}
	sc.res.Interrupted, sc.res.Reason = true, reasonFor(sc.ctx)
	return true
}

// randomSearch runs KindRandom: iters seeded draws through sample.
func randomSearch(ctx context.Context, s *spec.Spec, opts Options, iters int, seed int64) *Result {
	rng := rand.New(rand.NewSource(seed))
	sc := newSampling(ctx, s, opts)
	var idx []int
	for i := 0; i < iters && !sc.stopped(); i++ {
		sc.res.Cursor = i + 1
		idx = idx[:0]
		for k := range sc.ev.units {
			if rng.Intn(2) == 0 {
				idx = append(idx, k)
			}
		}
		sc.res.Stats.Scanned++
		sc.sample(idx)
	}
	return sc.finish()
}

// The evolutionary baseline's budget and operators: eaPopulation
// individuals bred for eaGenerations generations, uniform crossover
// with probability eaCrossoverP, and per-bit mutation with probability
// 1/#units.
const (
	eaPopulation  = 24
	eaGenerations = 40
	eaCrossoverP  = 0.9
)

// evolutionary runs KindEvolutionary: eaGenerations generations of
// eaPopulation genomes, each evaluated through sample.
func evolutionary(ctx context.Context, s *spec.Spec, opts Options, seed int64) *Result {
	rng := rand.New(rand.NewSource(seed))
	sc := newSampling(ctx, s, opts)
	n := len(sc.ev.units)
	mutationP := 1 / float64(n)

	type genome []bool
	var idx []int
	evaluate := func(g genome) sampled {
		idx = idx[:0]
		for i, on := range g {
			if on {
				idx = append(idx, i)
			}
		}
		v, miss := sc.sample(idx)
		if miss {
			sc.res.Stats.Scanned++
		}
		return v
	}
	objectives := func(g genome) []float64 {
		v := evaluate(g)
		if v.flex < 0 {
			// Infeasible: strictly dominated by everything feasible.
			return []float64{v.cost + 1e9, 1e9}
		}
		return pareto.CostFlexObjectives(v.cost, v.flex)
	}

	pop := make([]genome, eaPopulation)
	for i := range pop {
		g := make(genome, n)
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
	for gen := 0; gen < eaGenerations; gen++ {
		if sc.stopped() {
			return sc.finish()
		}
		sc.res.Cursor = gen + 1
		next := make([]genome, 0, eaPopulation)
		for len(next) < eaPopulation {
			p1, p2 := tournament(), tournament()
			child := make(genome, n)
			if rng.Float64() < eaCrossoverP {
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
				if rng.Float64() < mutationP {
					child[j] = !child[j]
				}
			}
			next = append(next, child)
		}
		pop = next
	}
	// Final evaluation of the last generation.
	for _, g := range pop {
		if sc.stopped() {
			break
		}
		evaluate(g)
	}
	return sc.finish()
}
