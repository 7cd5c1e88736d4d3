package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/models"
	"repro/internal/pareto"
	"repro/internal/spec"
)

// oracleHeader is the result header both sampling oracles start from.
func oracleHeader(s *spec.Spec, opts Options) *Result {
	res := &Result{MaxFlexibility: MaxFlexibility(s, opts), Reason: ReasonCompleted}
	res.Stats.AllocSpace = alloc.SearchSpace(len(alloc.Units(s)))
	_, _, pc, _ := s.Problem.ElementCount()
	res.Stats.DesignSpace = res.Stats.AllocSpace * alloc.SearchSpace(pc)
	return res
}

// oracleImplement implements a possible allocation with the uncached
// referenceImplement and admits it to front when feasible; it returns
// the flexibility, -1 when infeasible.
func oracleImplement(s *spec.Spec, a spec.Allocation, opts Options, res *Result, front *pareto.Front) float64 {
	res.Stats.PossibleAllocations++
	res.Stats.Attempted++
	im := referenceImplement(s, a, opts, &res.Stats)
	if im == nil {
		return -1
	}
	res.Stats.Feasible++
	front.Add(&pareto.Entry{Objectives: pareto.CostFlexObjectives(im.Cost, im.Flexibility), Value: im})
	return im.Flexibility
}

// oracleRandomSearch is a KindRandom run on allocation maps: each draw
// builds a spec.Allocation, dedupes by its String and tests it with
// alloc.Possible.
func oracleRandomSearch(s *spec.Spec, opts Options, iters int, seed int64) *Result {
	rng := rand.New(rand.NewSource(seed))
	units := alloc.Units(s)
	res := oracleHeader(s, opts)
	front := &pareto.Front{}
	seen := map[string]bool{}
	for i := 0; i < iters; i++ {
		res.Cursor = i + 1
		a := spec.Allocation{}
		for _, u := range units {
			if rng.Intn(2) == 0 {
				a[u.ID] = true
			}
		}
		res.Stats.Scanned++
		if seen[a.String()] {
			continue
		}
		seen[a.String()] = true
		if alloc.Possible(s, a) {
			oracleImplement(s, a, opts, res, front)
		}
	}
	res.Front = frontToImplementations(front)
	return res
}

// oracleEvolutionary is a KindEvolutionary run on allocation maps, with the
// genome cache keyed by the allocation's String and the cost taken from
// Allocation.Cost.
func oracleEvolutionary(s *spec.Spec, opts Options, seed int64) *Result {
	rng := rand.New(rand.NewSource(seed))
	units := alloc.Units(s)
	res := oracleHeader(s, opts)
	front := &pareto.Front{}
	type genome []bool
	cache := map[string][2]float64{}
	evaluate := func(g genome) (float64, float64) {
		a := spec.Allocation{}
		for i, on := range g {
			if on {
				a[units[i].ID] = true
			}
		}
		if v, ok := cache[a.String()]; ok {
			return v[0], v[1]
		}
		res.Stats.Scanned++
		cost, f := a.Cost(s), -1.0
		if alloc.Possible(s, a) {
			f = oracleImplement(s, a, opts, res, front)
		}
		cache[a.String()] = [2]float64{cost, f}
		return cost, f
	}
	objectives := func(g genome) []float64 {
		cost, f := evaluate(g)
		if f < 0 {
			return []float64{cost + 1e9, 1e9}
		}
		return pareto.CostFlexObjectives(cost, f)
	}
	pop := make([]genome, 24)
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
	for gen := 0; gen < 40; gen++ {
		res.Cursor = gen + 1
		next := make([]genome, 0, len(pop))
		for len(next) < len(pop) {
			p1, p2 := tournament(), tournament()
			child := make(genome, len(units))
			if rng.Float64() < 0.9 {
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
				if rng.Float64() < 1/float64(len(units)) {
					child[j] = !child[j]
				}
			}
			next = append(next, child)
		}
		pop = next
	}
	for _, g := range pop {
		evaluate(g)
	}
	res.Front = frontToImplementations(front)
	return res
}

// frontSummary renders what the cached path must reproduce of a front:
// each point's allocation, exact cost and flexibility, and clusters.
func frontSummary(front []*Implementation) string {
	var b strings.Builder
	for _, im := range front {
		fmt.Fprintf(&b, "%s %x %x %v\n", im.Allocation, math.Float64bits(im.Cost), math.Float64bits(im.Flexibility), im.Clusters)
	}
	return b.String()
}

// TestSamplingBaselinesMatchOracle pins KindRandom and KindEvolutionary runs to
// the map-based loops they replaced: the fronts (bindings included, see
// frontsEqual), cursor, reason, Scanned and the semantic counters equal
// the oracle's, the solver runs as often as in the oracle, one solve
// per binding decision, and every attempt reuses the supportable set of
// its possibility test.
func TestSamplingBaselinesMatchOracle(t *testing.T) {
	subjects := []struct {
		name string
		s    *spec.Spec
	}{
		{"settop", models.SetTopBox()},
		{"decoder", models.Decoder()},
		{"sdr", models.SDR()},
		{"synthetic2", models.Synthetic(models.DefaultSynthetic(2))},
		{"synthetic3", models.Synthetic(models.DefaultSynthetic(3))},
		{"synthetic7", models.Synthetic(models.DefaultSynthetic(7))},
	}
	type explorer func(s *spec.Spec, opts Options, seed int64) *Result
	runs := []struct {
		name       string
		do, oracle explorer
	}{
		{"random200",
			func(s *spec.Spec, opts Options, seed int64) *Result {
				return Run(context.Background(), s, opts, Request{Kind: KindRandom, Iterations: 200, Seed: seed})
			},
			func(s *spec.Spec, opts Options, seed int64) *Result { return oracleRandomSearch(s, opts, 200, seed) }},
		{"random1000",
			func(s *spec.Spec, opts Options, seed int64) *Result {
				return Run(context.Background(), s, opts, Request{Kind: KindRandom, Iterations: 1000, Seed: seed})
			},
			func(s *spec.Spec, opts Options, seed int64) *Result { return oracleRandomSearch(s, opts, 1000, seed) }},
		{"ea",
			func(s *spec.Spec, opts Options, seed int64) *Result {
				return Run(context.Background(), s, opts, Request{Kind: KindEvolutionary, Seed: seed})
			},
			oracleEvolutionary},
	}
	for _, sub := range subjects {
		t.Run(sub.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				for _, rn := range runs {
					want := rn.oracle(sub.s, Options{}, seed)
					got := rn.do(sub.s, Options{}, seed)
					if !frontsEqual(got.Front, want.Front) {
						t.Errorf("%s seed %d: front\n%s\nwant\n%s", rn.name, seed, frontSummary(got.Front), frontSummary(want.Front))
						for i := range min(len(got.Front), len(want.Front)) {
							if d := sameImplementation(got.Front[i], want.Front[i], true); d != "" {
								t.Errorf("%s seed %d: entry %d: %s", rn.name, seed, i, d)
							}
						}
					}
					if got.Cursor != want.Cursor || got.Reason != want.Reason || got.Stats.Scanned != want.Stats.Scanned {
						t.Errorf("%s seed %d: cursor %d reason %s scanned %d, want %d %s %d", rn.name, seed,
							got.Cursor, got.Reason, got.Stats.Scanned, want.Cursor, want.Reason, want.Stats.Scanned)
					}
					if !reflect.DeepEqual(got.Stats.Semantic(), want.Stats.Semantic()) {
						t.Errorf("%s seed %d: semantic stats %+v, want %+v", rn.name, seed, got.Stats.Semantic(), want.Stats.Semantic())
					}
					if got.Stats.BindingRuns != want.Stats.BindingRuns {
						t.Errorf("%s seed %d: %d solver runs, the oracle's %d", rn.name, seed,
							got.Stats.BindingRuns, want.Stats.BindingRuns)
					}
					if got.Stats.Cache.SupportableReused != got.Stats.Attempted {
						t.Errorf("%s seed %d: %d attempts reused %d supportable sets", rn.name, seed,
							got.Stats.Attempted, got.Stats.Cache.SupportableReused)
					}
				}
			}
		})
	}
}

// TestSampleAllocations: on the cached path a repeated sample allocates
// nothing, and only a sample the front admits builds its allocation
// map. Every possible Set-Top box allocation is sampled in cost order,
// so most feasible samples are rejected.
func TestSampleAllocations(t *testing.T) {
	s := models.SetTopBox()
	sc := newSampling(context.Background(), s, Options{})
	var cands [][]int
	alloc.NewSupporter(s).EnumerateSymbolicUnits(nil, alloc.Options{IncludeUselessComm: true}, 0, func(units []int, _ float64) bool {
		cands = append(cands, append([]int(nil), units...))
		return true
	})
	admitted, rejected := 0, 0
	for _, units := range cands {
		before := map[any]bool{}
		for _, e := range sc.front.Entries() {
			before[e.Value] = true
		}
		if _, miss := sc.sample(units); !miss {
			t.Fatalf("%v: first sample reported a memo hit", units)
		}
		kept := false
		for _, e := range sc.front.Entries() {
			kept = kept || !before[e.Value]
		}
		switch {
		case kept:
			admitted++
		case sc.rec.att.ok:
			rejected++
		}
		if built := sc.rec.a != nil; built != kept {
			t.Fatalf("%v: admitted %v but built the allocation map %v", units, kept, built)
		}
	}
	if admitted == 0 || rejected == 0 {
		t.Fatalf("%d admitted, %d rejected feasible samples: want both", admitted, rejected)
	}
	for _, units := range [][]int{cands[0], cands[len(cands)-1]} {
		if n := testing.AllocsPerRun(100, func() {
			if _, miss := sc.sample(units); miss {
				t.Fatal("repeated sample missed the memo")
			}
		}); n != 0 {
			t.Errorf("%v: a repeated sample allocates %v times, want 0", units, n)
		}
	}
}
