// Experiment benchmarks: one per table/figure of the paper (DESIGN.md
// carries the index, EXPERIMENTS.md the paper-vs-measured record).
// Custom metrics attach the reproduced quantities to the benchmark
// output, so `go test -bench=.` regenerates every number.
package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/bind"
	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/flex"
	"repro/internal/models"
	"repro/internal/pareto"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/spec"
)

// BenchmarkE1_Fig1Leaves — Fig. 1: the hierarchical TV-decoder problem
// graph and its leaf set per Eq. (1).
func BenchmarkE1_Fig1Leaves(b *testing.B) {
	g := models.DecoderProblem()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(g.Leaves()) != 7 {
			b.Fatal("Fig. 1 has 7 leaves")
		}
	}
	b.ReportMetric(7, "leaves")
	b.ReportMetric(6, "variants")
}

// BenchmarkE2_Fig2Allocations — Fig. 2: the possible-resource-allocation
// set of the decoder specification (the paper's upward closure of {μP}).
func BenchmarkE2_Fig2Allocations(b *testing.B) {
	s := models.Decoder()
	n := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n = 0
		alloc.Enumerate(s, alloc.Options{IncludeUselessComm: true}, func(alloc.Candidate) bool {
			n++
			return true
		})
	}
	b.ReportMetric(float64(n), "possible_allocs")
}

// BenchmarkE3_Fig3Flexibility — Fig. 3: the worked flexibility equation
// (max 8; 5 without the game cluster).
func BenchmarkE3_Fig3Flexibility(b *testing.B) {
	g := models.SetTopProblem()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if flex.MaxFlexibility(g) != 8 {
			b.Fatal("f(G_P) = 8")
		}
		if flex.Flexibility(g, flex.Except(flex.AllActive, "gG")) != 5 {
			b.Fatal("f without gG = 5")
		}
	}
	b.ReportMetric(8, "f_max")
	b.ReportMetric(5, "f_without_game")
}

// BenchmarkE4_TradeoffCurve — Fig. 4: the cost vs 1/flexibility
// trade-off curve with dominance pruning; the hypervolume quantifies
// the curve.
func BenchmarkE4_TradeoffCurve(b *testing.B) {
	s := models.SetTopBox()
	var hv float64
	var rows int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := core.Explore(s, core.Options{})
		front := &pareto.Front{}
		var pts []dot.TradeoffPoint
		for _, im := range r.Front {
			front.Add(&pareto.Entry{Objectives: pareto.CostFlexObjectives(im.Cost, im.Flexibility)})
			pts = append(pts, dot.TradeoffPoint{Cost: im.Cost, Flexibility: im.Flexibility})
		}
		hv = pareto.Hypervolume2D(front, [2]float64{500, 1})
		rows = len(dot.TradeoffTSV(pts))
		if rows == 0 {
			b.Fatal("empty curve")
		}
	}
	b.ReportMetric(hv, "hypervolume")
}

// BenchmarkE5_Table1 — Table 1: assembling the case-study specification
// from the published mapping table and validating it.
func BenchmarkE5_Table1(b *testing.B) {
	b.ReportAllocs()
	var m int
	for i := 0; i < b.N; i++ {
		s := models.SetTopBox()
		m = len(s.Mappings)
	}
	b.ReportMetric(float64(m), "mapping_edges")
}

// BenchmarkE6_CaseStudyExplore — the Section 5 Pareto table: EXPLORE on
// the Set-Top box, asserting the published six rows.
func BenchmarkE6_CaseStudyExplore(b *testing.B) {
	s := models.SetTopBox()
	want := [][2]float64{{100, 2}, {120, 3}, {230, 4}, {290, 5}, {360, 7}, {430, 8}}
	b.ReportAllocs()
	b.ResetTimer()
	var st core.Stats
	for i := 0; i < b.N; i++ {
		r := core.Explore(s, core.Options{})
		if len(r.Front) != len(want) {
			b.Fatal("front size")
		}
		for k, w := range want {
			if r.Front[k].Cost != w[0] || r.Front[k].Flexibility != w[1] {
				b.Fatalf("row %d mismatch", k)
			}
		}
		st = r.Stats
	}
	b.ReportMetric(6, "pareto_points")
	b.ReportMetric(float64(st.BindingRuns), "binding_runs")
}

// BenchmarkE7_PruningStats — Section 5's search-space reduction:
// 2^25 design points, 2^14 allocation subsets, possible allocations,
// and implementation attempts, for EXPLORE and for the exhaustive
// baseline.
func BenchmarkE7_PruningStats(b *testing.B) {
	s := models.SetTopBox()
	b.Run("explore", func(b *testing.B) {
		var st core.Stats
		for i := 0; i < b.N; i++ {
			st = core.Explore(s, core.Options{}).Stats
		}
		b.ReportMetric(st.DesignSpace, "design_space")
		b.ReportMetric(float64(st.PossibleAllocations), "possible_allocs")
		b.ReportMetric(float64(st.Attempted), "attempted")
	})
	b.Run("explore-nopruning", func(b *testing.B) {
		var st core.Stats
		for i := 0; i < b.N; i++ {
			st = core.Explore(s, core.Options{IncludeUselessComm: true}).Stats
		}
		b.ReportMetric(float64(st.PossibleAllocations), "possible_allocs")
		b.ReportMetric(float64(st.Attempted), "attempted")
	})
	b.Run("exhaustive", func(b *testing.B) {
		var st core.Stats
		for i := 0; i < b.N; i++ {
			st = core.Exhaustive(s, core.Options{}).Stats
		}
		b.ReportMetric(float64(st.Attempted), "attempted")
		b.ReportMetric(float64(st.BindingRuns), "binding_runs")
	})
}

// BenchmarkE8_SyntheticSweep — Section 4's scalability claim: search
// spaces of 10^5–10^12 design points reduce to 10^3–10^4 possible
// allocations and far fewer implementation attempts.
func BenchmarkE8_SyntheticSweep(b *testing.B) {
	cases := []struct {
		name string
		p    models.SyntheticParams
	}{
		{"small-2^16", models.SyntheticParams{Seed: 1, Apps: 2, Depth: 1, Branch: 2,
			Vertices: 2, Processors: 2, ASICs: 2, Designs: 2, Buses: 4, TimedFraction: 0.4, AccelOnlyFraction: 0.3}},
		{"medium-2^26", models.SyntheticParams{Seed: 2, Apps: 3, Depth: 1, Branch: 3,
			Vertices: 2, Processors: 2, ASICs: 3, Designs: 3, Buses: 6, TimedFraction: 0.4, AccelOnlyFraction: 0.3}},
		{"large-2^71", models.SyntheticParams{Seed: 3, Apps: 4, Depth: 2, Branch: 3,
			Vertices: 2, Processors: 3, ASICs: 4, Designs: 4, Buses: 8, TimedFraction: 0.3, AccelOnlyFraction: 0.3}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			s := models.Synthetic(tc.p)
			var st core.Stats
			var front int
			for i := 0; i < b.N; i++ {
				r := core.Explore(s, core.Options{StopAtMaxFlex: true, MaxScan: 200000})
				st = r.Stats
				front = len(r.Front)
			}
			b.ReportMetric(st.DesignSpace, "design_space")
			b.ReportMetric(float64(st.Scanned), "scanned")
			b.ReportMetric(float64(st.PossibleAllocations), "possible_allocs")
			b.ReportMetric(float64(st.Attempted), "attempted")
			b.ReportMetric(float64(front), "front")
		})
	}
}

// BenchmarkE9_WorkedFeasibility — the paper's worked feasibility
// analysis of μP2 (f=2, game rejected by the 69% test) and μP1 (f=3).
func BenchmarkE9_WorkedFeasibility(b *testing.B) {
	s := models.SetTopBox()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		im2 := core.Implement(s, spec.NewAllocation("uP2"), core.Options{}, nil)
		im1 := core.Implement(s, spec.NewAllocation("uP1"), core.Options{}, nil)
		if im2.Flexibility != 2 || im1.Flexibility != 3 {
			b.Fatal("worked example mismatch")
		}
	}
	b.ReportMetric(2, "f_uP2")
	b.ReportMetric(3, "f_uP1")
}

// BenchmarkE10_WeightedFlex — footnote 2: the weighted flexibility
// variant over the case study.
func BenchmarkE10_WeightedFlex(b *testing.B) {
	s := models.SetTopBox()
	for _, c := range s.Problem.Clusters() {
		if len(c.Interfaces) == 0 && c.ID != "gI" {
			c.Attrs = map[string]float64{spec.AttrWeight: 2}
		}
	}
	var fmax float64
	for i := 0; i < b.N; i++ {
		r := core.Explore(s, core.Options{Weighted: true})
		fmax = r.MaxFlexibility
	}
	b.ReportMetric(fmax, "weighted_f_max")
}

// BenchmarkE11_ExplorerComparison — EXPLORE vs exhaustive vs random vs
// evolutionary (paper reference [2]) on the case study: front quality
// (coverage of the exact front) and solver effort.
func BenchmarkE11_ExplorerComparison(b *testing.B) {
	s := models.SetTopBox()
	exact := core.Explore(s, core.Options{})
	exactFront := &pareto.Front{}
	for _, im := range exact.Front {
		exactFront.Add(&pareto.Entry{Objectives: pareto.CostFlexObjectives(im.Cost, im.Flexibility)})
	}
	ref := [2]float64{500, 1}
	exactHV := pareto.Hypervolume2D(exactFront, ref)
	coverage := func(r *core.Result) float64 {
		f := &pareto.Front{}
		for _, im := range r.Front {
			f.Add(&pareto.Entry{Objectives: pareto.CostFlexObjectives(im.Cost, im.Flexibility)})
		}
		return pareto.Hypervolume2D(f, ref) / exactHV
	}
	b.Run("explore", func(b *testing.B) {
		var r *core.Result
		for i := 0; i < b.N; i++ {
			r = core.Explore(s, core.Options{})
		}
		b.ReportMetric(coverage(r), "hv_ratio")
		b.ReportMetric(float64(r.Stats.BindingRuns), "binding_runs")
	})
	b.Run("exhaustive", func(b *testing.B) {
		var r *core.Result
		for i := 0; i < b.N; i++ {
			r = core.Exhaustive(s, core.Options{})
		}
		b.ReportMetric(coverage(r), "hv_ratio")
		b.ReportMetric(float64(r.Stats.BindingRuns), "binding_runs")
	})
	b.Run("random1000", func(b *testing.B) {
		var r *core.Result
		for i := 0; i < b.N; i++ {
			r = core.RandomSearch(s, core.Options{}, 1000, 1)
		}
		b.ReportMetric(coverage(r), "hv_ratio")
		b.ReportMetric(float64(r.Stats.BindingRuns), "binding_runs")
	})
	b.Run("evolutionary", func(b *testing.B) {
		var r *core.Result
		for i := 0; i < b.N; i++ {
			r = core.Evolutionary(s, core.Options{}, core.EAConfig{Seed: 1})
		}
		b.ReportMetric(coverage(r), "hv_ratio")
		b.ReportMetric(float64(r.Stats.BindingRuns), "binding_runs")
	})
}

// BenchmarkE12_ServiceLevel — beyond the paper: the runtime payoff of
// flexibility. Expected service level of the cheapest and richest
// Pareto implementations under uniform behaviour requests.
func BenchmarkE12_ServiceLevel(b *testing.B) {
	s := models.SetTopBox()
	r := core.Explore(s, core.Options{AllBehaviours: true})
	var lo, hi float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		levels := sim.ServiceLevel(s, r.Front, 7, 200)
		lo, hi = levels[0], levels[len(levels)-1]
	}
	b.ReportMetric(lo, "service_cheapest")
	b.ReportMetric(hi, "service_richest")
}

// BenchmarkAblation_FlexBound — design-choice ablation: the flexibility
// estimation bound on vs off (same front, different effort).
func BenchmarkAblation_FlexBound(b *testing.B) {
	s := models.SetTopBox()
	b.Run("bound-on", func(b *testing.B) {
		var st core.Stats
		for i := 0; i < b.N; i++ {
			st = core.Explore(s, core.Options{}).Stats
		}
		b.ReportMetric(float64(st.Attempted), "attempted")
	})
	b.Run("bound-off", func(b *testing.B) {
		var st core.Stats
		for i := 0; i < b.N; i++ {
			st = core.Explore(s, core.Options{DisableFlexBound: true}).Stats
		}
		b.ReportMetric(float64(st.Attempted), "attempted")
	})
}

// BenchmarkAblation_TimingPolicy — design-choice ablation: the paper's
// 69% estimate vs the exact Liu-Layland bound vs response-time
// analysis.
func BenchmarkAblation_TimingPolicy(b *testing.B) {
	s := models.SetTopBox()
	for _, p := range []bind.TimingPolicy{
		bind.TimingPaper, bind.TimingLiuLayland, bind.TimingRTA, bind.TimingNone,
	} {
		b.Run(p.String(), func(b *testing.B) {
			var front int
			var f0 float64
			for i := 0; i < b.N; i++ {
				r := core.Explore(s, core.Options{Timing: p})
				front = len(r.Front)
				f0 = r.Front[0].Flexibility
			}
			b.ReportMetric(float64(front), "front")
			b.ReportMetric(f0, "f_at_cheapest")
		})
	}
}

// BenchmarkAblation_CostOrder — design-choice ablation: cost-sorted
// candidate order is what makes the flexibility bound effective; with
// the bound disabled the order does not matter for the result but the
// bound-on/off gap quantifies the synergy.
func BenchmarkAblation_CostOrder(b *testing.B) {
	s := models.SetTopBox()
	b.Run("sorted+bound", func(b *testing.B) {
		var st core.Stats
		for i := 0; i < b.N; i++ {
			st = core.Explore(s, core.Options{}).Stats
		}
		b.ReportMetric(float64(st.BindingRuns), "binding_runs")
	})
	b.Run("sorted+stop-at-max", func(b *testing.B) {
		var st core.Stats
		for i := 0; i < b.N; i++ {
			st = core.Explore(s, core.Options{StopAtMaxFlex: true}).Stats
		}
		b.ReportMetric(float64(st.Scanned), "scanned")
		b.ReportMetric(float64(st.BindingRuns), "binding_runs")
	})
}

// BenchmarkE13_Upgrade — beyond the paper: incremental platform
// upgrades from the deployed $100 box (supersets only; running
// behaviours guaranteed to survive).
func BenchmarkE13_Upgrade(b *testing.B) {
	s := models.SetTopBox()
	base := spec.NewAllocation("uP2")
	var front int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := core.Upgrade(s, base, core.Options{})
		front = len(r.Front)
	}
	b.ReportMetric(float64(front), "upgrade_points")
}

// BenchmarkE14_SDR — beyond the paper: the software-defined-radio case
// study, exact front in one exploration.
func BenchmarkE14_SDR(b *testing.B) {
	s := models.SDR()
	var st core.Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := core.Explore(s, core.Options{})
		if len(r.Front) != 4 {
			b.Fatal("wrong front")
		}
		st = r.Stats
	}
	b.ReportMetric(float64(st.Attempted), "attempted")
	b.ReportMetric(4, "pareto_points")
}

// BenchmarkE15_SymbolicCount — the paper's "one boolean equation":
// counting the possible-allocation set symbolically (BDD) instead of
// scanning 2^14 subsets.
func BenchmarkE15_SymbolicCount(b *testing.B) {
	s := models.SetTopBox()
	b.ReportAllocs()
	var n float64
	for i := 0; i < b.N; i++ {
		n = alloc.CountPossible(s)
	}
	b.ReportMetric(n, "possible_allocs")
}

// BenchmarkExploreSynthetic — the evaluation-cache benchmark: one
// EXPLORE run over a mid-size synthetic spec with the cross-candidate
// caches on (the default) and off (the -cache=off legacy path). The
// flexibility bound is disabled so every possible allocation is
// implemented — the candidate-evaluation hot path the caches target,
// not the subset scan around it. The acceptance bar is ≥2× fewer
// allocs/op cached; the custom metrics record the per-run cache hit
// rates behind the saving.
func BenchmarkExploreSynthetic(b *testing.B) {
	p := models.SyntheticParams{Seed: 11, Apps: 3, Depth: 1, Branch: 3,
		Vertices: 2, Processors: 2, ASICs: 3, Designs: 3, Buses: 6,
		TimedFraction: 0.4, AccelOnlyFraction: 0.3}
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"cached", false}, {"uncached", true}} {
		b.Run(mode.name, func(b *testing.B) {
			s := models.Synthetic(p)
			var st core.Stats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st = core.Explore(s, core.Options{
					DisableCache: mode.disable, DisableFlexBound: true, MaxScan: 50000,
				}).Stats
			}
			b.ReportMetric(float64(st.BindingRuns), "binding_runs")
			if n := st.Cache.BindHits() + st.Cache.BindMisses; n > 0 {
				b.ReportMetric(float64(st.Cache.BindHits())/float64(n), "bind_hit_rate")
			}
			if n := st.Cache.FlattenHits + st.Cache.FlattenMisses; n > 0 {
				b.ReportMetric(float64(st.Cache.FlattenHits)/float64(n), "flatten_hit_rate")
			}
		})
	}
	// Worker-count variants of the same run through the pipelined
	// explorer (workers-1 routes to the sequential path). The front and
	// the semantic stats are identical across all of them — the variants
	// measure the ordered-commit pipeline's scaling, and the stall /
	// high-water gauges record how hard the commit stage had to reorder.
	// "workers=N", not "workers-N": go test appends the GOMAXPROCS value
	// as a trailing -N, which a hyphenated worker count would mimic.
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			s := models.Synthetic(p)
			var st core.Stats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st = core.ExploreParallel(s, core.Options{
					DisableFlexBound: true, MaxScan: 50000,
				}, w, 0).Stats
			}
			b.ReportMetric(float64(st.BindingRuns), "binding_runs")
			if w > 1 {
				b.ReportMetric(float64(st.Pipeline.CommitStalls), "commit_stalls")
				b.ReportMetric(float64(st.Pipeline.QueueHighWater), "queue_high_water")
				b.ReportMetric(float64(st.Pipeline.BatchesCommitted), "batches_committed")
				b.ReportMetric(float64(st.Pipeline.BoundPublishes), "bound_publishes")
			}
		})
	}
}

// BenchmarkEnumerateSynthetic — the bitset-native allocation scan: the
// subset heap carries pooled index slices and unit bitsets, the
// useless-comm and supportability tests run on machine words, and no
// per-subset map is built — an Allocation map is materialized only for
// the emitted (possible) candidates. allocs/op is the acceptance
// metric: it scales with possible candidates, not with scanned subsets.
func BenchmarkEnumerateSynthetic(b *testing.B) {
	p := models.SyntheticParams{Seed: 11, Apps: 3, Depth: 1, Branch: 3,
		Vertices: 2, Processors: 2, ASICs: 3, Designs: 3, Buses: 6,
		TimedFraction: 0.4, AccelOnlyFraction: 0.3}
	s := models.Synthetic(p)
	var scanned, possible int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		possible = 0
		st := alloc.Enumerate(s, alloc.Options{MaxScan: 50000}, func(alloc.Candidate) bool {
			possible++
			return true
		})
		scanned = st.Scanned
	}
	b.ReportMetric(float64(scanned), "scanned")
	b.ReportMetric(float64(possible), "possible_allocs")
}

// BenchmarkEnumerateSymbolic — the escape from the 2^n allocation
// scan. The enumeration variant emits a 4096-candidate cost-ordered
// prefix over a 30-unit synthetic architecture, where the bitset heap
// scan would have to pop up to 2^30 subsets to reach the same stream
// position; the custom metrics record the BDD search nodes visited
// (the symbolic analogue of "scanned", measured ~675k — three orders
// of magnitude under 2^30) and the candidates emitted. allocs/op is
// the churn gauge: pooling the walk's frontier nodes and reusing its
// memo slices (internal/boolfunc) cut units=30 from ~175 MB / 2.07M
// allocs per op to ~57.7 MB / 560k — same visits, same stream. The count
// variants exercise the pure-symbolic path on 50- and 100-unit
// architectures, where cost-ordered *enumeration* effort is dominated
// by the cheap-bus cost plateau (docs/symbolic.md) but counting the
// whole possible-allocation set stays polynomial in the BDD size.
func BenchmarkEnumerateSymbolic(b *testing.B) {
	b.Run("units=30", func(b *testing.B) {
		s := models.Synthetic(models.ScaledSynthetic(1, 30))
		var st alloc.Stats
		emitted := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			emitted = 0
			st = alloc.EnumerateSymbolic(s, alloc.Options{}, func(alloc.Candidate) bool {
				emitted++
				return emitted < 4096
			})
		}
		b.ReportMetric(float64(st.Scanned), "visited")
		b.ReportMetric(float64(emitted), "emitted")
	})
	for _, units := range []int{50, 100} {
		b.Run(fmt.Sprintf("count/units=%d", units), func(b *testing.B) {
			s := models.Synthetic(models.ScaledSynthetic(1, units))
			var digits int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				digits = len(alloc.CountPossibleBig(s).String())
			}
			b.ReportMetric(float64(digits), "count_digits")
		})
	}
}

// BenchmarkE16_TriObjective — §4's "many different design objectives":
// cost × 1/flexibility × mean optimal latency. The front grows beyond
// the bi-objective one (faster ASICs become Pareto-relevant).
func BenchmarkE16_TriObjective(b *testing.B) {
	s := models.SetTopBox()
	objs := []core.Objective{
		core.CostObjective(), core.InvFlexibilityObjective(), core.MeanLatencyObjective(),
	}
	var front int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := core.ExploreMulti(s, core.Options{AllBehaviours: true}, objs)
		front = len(r.Front)
	}
	b.ReportMetric(float64(front), "front")
}

// BenchmarkServerOverhead — the service path's tax over the bare
// runtime: the same synthetic exploration measured as a direct
// core.Explore call and as a full loopback HTTP job lifecycle
// (submit → poll → result fetch) against internal/server. The delta
// between the two variants is the admission + scheduling + JSON +
// polling overhead per job.
func BenchmarkServerOverhead(b *testing.B) {
	body := `{"model": "synthetic", "seed": 1, "workers": 1}`
	b.Run("direct", func(b *testing.B) {
		s := models.Synthetic(models.DefaultSynthetic(1))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if r := core.Explore(s, core.Options{}); len(r.Front) == 0 {
				b.Fatal("empty front")
			}
		}
	})
	b.Run("http", func(b *testing.B) {
		srv, err := server.New(server.Config{CheckpointDir: b.TempDir(), MaxRunning: 1})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			var view struct {
				ID string `json:"id"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				b.Fatalf("submit: status %d", resp.StatusCode)
			}
			for {
				rr, err := http.Get(ts.URL + "/jobs/" + view.ID + "/result")
				if err != nil {
					b.Fatal(err)
				}
				_, _ = io.Copy(io.Discard, rr.Body)
				rr.Body.Close()
				if rr.StatusCode == http.StatusOK {
					break
				}
				if rr.StatusCode != http.StatusAccepted {
					b.Fatalf("result: status %d", rr.StatusCode)
				}
				time.Sleep(500 * time.Microsecond)
			}
		}
		b.StopTimer()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			b.Fatal(err)
		}
	})
}
