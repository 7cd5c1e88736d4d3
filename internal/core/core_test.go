package core

import (
	"encoding/json"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/alloc"
	"repro/internal/bind"
	"repro/internal/flex"
	"repro/internal/hgraph"
	"repro/internal/models"
	"repro/internal/pareto"
	"repro/internal/spec"
)

// paperRow is one row of the paper's Section 5 Pareto table.
type paperRow struct {
	alloc    spec.Allocation
	cost     float64
	flex     float64
	clusters []hgraph.ID // implemented clusters excluding the root and gG/gD parents
}

// paperPareto returns the published Pareto-optimal set of the Set-Top
// box case study (allocations translated to our unit IDs: FPGA designs
// are the clusters dD3/dU2/dG1).
func paperPareto() []paperRow {
	return []paperRow{
		{spec.NewAllocation("uP2"), 100, 2,
			[]hgraph.ID{"gI", "gD1", "gU1"}},
		{spec.NewAllocation("uP1"), 120, 3,
			[]hgraph.ID{"gI", "gG1", "gD1", "gU1"}},
		{spec.NewAllocation("uP2", "dG1", "dU2", "C1"), 230, 4,
			[]hgraph.ID{"gI", "gG1", "gD1", "gU1", "gU2"}},
		{spec.NewAllocation("uP2", "dD3", "dG1", "dU2", "C1"), 290, 5,
			[]hgraph.ID{"gI", "gG1", "gD1", "gD3", "gU1", "gU2"}},
		{spec.NewAllocation("uP2", "A1", "C2"), 360, 7,
			[]hgraph.ID{"gI", "gG1", "gG2", "gG3", "gD1", "gD2", "gU1", "gU2"}},
		{spec.NewAllocation("uP2", "A1", "dD3", "C1", "C2"), 430, 8,
			[]hgraph.ID{"gI", "gG1", "gG2", "gG3", "gD1", "gD2", "gD3", "gU1", "gU2"}},
	}
}

// TestCaseStudyParetoTable is experiment E6: EXPLORE on the Set-Top box
// reproduces the paper's six-row Pareto table exactly — allocations,
// implemented clusters, costs and flexibilities.
func TestCaseStudyParetoTable(t *testing.T) {
	s := models.SetTopBox()
	r := Explore(s, Options{})
	rows := paperPareto()
	if len(r.Front) != len(rows) {
		t.Fatalf("front size = %d, want %d", len(r.Front), len(rows))
	}
	if r.MaxFlexibility != 8 {
		t.Errorf("max flexibility = %v, want 8", r.MaxFlexibility)
	}
	for i, want := range rows {
		got := r.Front[i]
		if got.Cost != want.cost || got.Flexibility != want.flex {
			t.Errorf("row %d: (cost,f) = (%v,%v), want (%v,%v)", i, got.Cost, got.Flexibility, want.cost, want.flex)
		}
		if !got.Allocation.Equal(want.alloc) {
			t.Errorf("row %d: allocation = %v, want %v", i, got.Allocation, want.alloc)
		}
		implemented := map[hgraph.ID]bool{}
		for _, c := range got.Clusters {
			implemented[c] = true
		}
		for _, c := range want.clusters {
			if !implemented[c] {
				t.Errorf("row %d: cluster %s not implemented", i, c)
			}
		}
	}
}

// TestPaperRowsViaImplement independently verifies every published row:
// constructing an implementation for the published allocation yields
// the published cost and flexibility (this also covers the fact that
// the $230 row is one of several equal optima — the published one is a
// valid optimum).
func TestPaperRowsViaImplement(t *testing.T) {
	s := models.SetTopBox()
	for i, want := range paperPareto() {
		im := Implement(s, want.alloc, Options{}, nil)
		if im == nil {
			t.Fatalf("row %d: Implement returned nil", i)
		}
		if im.Cost != want.cost {
			t.Errorf("row %d: cost = %v, want %v", i, im.Cost, want.cost)
		}
		if im.Flexibility != want.flex {
			t.Errorf("row %d: flexibility = %v, want %v", i, im.Flexibility, want.flex)
		}
	}
}

// TestWorkedFeasibility is experiment E9: the paper's worked analysis
// of the first candidate μP2 — browser and digital TV feasible, game
// console rejected by the 69 % bound — giving f_impl = 2; and of μP1,
// where the game console fits, giving f = 3.
func TestWorkedFeasibility(t *testing.T) {
	s := models.SetTopBox()
	im2 := Implement(s, spec.NewAllocation("uP2"), Options{}, nil)
	if im2 == nil {
		t.Fatal("uP2 should be implementable")
	}
	if im2.Flexibility != 2 {
		t.Errorf("f(uP2) = %v, want 2", im2.Flexibility)
	}
	got := map[hgraph.ID]bool{}
	for _, c := range im2.Clusters {
		got[c] = true
	}
	if got["gG"] || got["gG1"] {
		t.Error("game console must be rejected on uP2 ((95+90)/240 > 0.69)")
	}
	if !got["gI"] || !got["gD1"] || !got["gU1"] {
		t.Error("browser and digital TV must be implemented on uP2")
	}

	im1 := Implement(s, spec.NewAllocation("uP1"), Options{}, nil)
	if im1 == nil || im1.Flexibility != 3 {
		t.Fatalf("f(uP1) = %v, want 3 ((75+70)/240 <= 0.69)", im1)
	}
}

// TestImplementBehavioursValid re-checks every behaviour of every front
// implementation against the independent binding validator.
func TestImplementBehavioursValid(t *testing.T) {
	s := models.SetTopBox()
	r := Explore(s, Options{})
	for _, im := range r.Front {
		if len(im.Behaviours) == 0 {
			t.Errorf("%v has no behaviours", im)
		}
		for _, b := range im.Behaviours {
			fp, err := s.Problem.Flatten(b.ECS.Selection)
			if err != nil {
				t.Fatalf("%v: flatten: %v", im, err)
			}
			av, err := s.ArchViewFor(im.Allocation, b.ArchSelection)
			if err != nil {
				t.Fatalf("%v: arch view: %v", im, err)
			}
			if err := bind.Check(s, fp, av, b.Binding, bind.Options{Timing: bind.TimingPaper}); err != nil {
				t.Errorf("%v: behaviour %v invalid: %v", im, b.ECS, err)
			}
		}
	}
}

// TestCaseStudyPruningStats is experiment E7: the search-space
// reduction numbers. The paper reports 2^25 design points, a reduction
// to 2^14 allocation candidates and ~7000 possible allocations
// investigated; our deterministic counters give 2^25, 2^14 and 2,371
// (useless-bus rule on) / 12,288 (off). EXPLORE attempts 25 of the
// 2,371 implementations. The paper's "≈1050 (0.0032 %)" with estimated
// flexibility above the implemented one is not an attempt count: it is
// the number of possible allocations whose estimate overshoots, which
// TestCaseStudyEstimateGap pins at 1,051 (see EXPERIMENTS.md).
func TestCaseStudyPruningStats(t *testing.T) {
	s := models.SetTopBox()

	r := Explore(s, Options{})
	if r.Stats.DesignSpace != 1<<25 {
		t.Errorf("design space = %v, want 2^25", r.Stats.DesignSpace)
	}
	if r.Stats.AllocSpace != 1<<14 {
		t.Errorf("allocation space = %v, want 2^14", r.Stats.AllocSpace)
	}
	if r.Stats.PossibleAllocations != 2371 {
		t.Errorf("possible allocations (bus-pruned) = %d, want 2371", r.Stats.PossibleAllocations)
	}
	if r.Stats.Attempted != 25 {
		t.Errorf("implementation attempts = %d, want 25", r.Stats.Attempted)
	}

	// Without the useless-bus pruning the possible-allocation count is
	// the upward closure of {a processor}: 3/4 of 2^14.
	r2 := Explore(s, Options{IncludeUselessComm: true})
	if r2.Stats.PossibleAllocations != 12288 {
		t.Errorf("possible allocations (unpruned) = %d, want 12288", r2.Stats.PossibleAllocations)
	}
	if len(r2.Front) != 6 {
		t.Errorf("unpruned exploration front size = %d, want 6", len(r2.Front))
	}
	// The flexibility bound must prune the vast majority of candidates.
	if r2.Stats.Attempted >= r2.Stats.PossibleAllocations/10 {
		t.Errorf("bound too weak: %d of %d attempted", r2.Stats.Attempted, r2.Stats.PossibleAllocations)
	}
}

// TestCaseStudyEstimateGap re-reads E7's "estimated flexibility >
// implemented" row: every possible allocation of the Set-Top box
// (useless-bus rule on, paper timing, unweighted) is estimated and
// implemented through the exported Estimate and Implement. For 1,051
// of the 2,371 the estimate is above the implemented flexibility — the
// paper's ≈1050 — and for the other 1,320 it is exact.
func TestCaseStudyEstimateGap(t *testing.T) {
	s := models.SetTopBox()
	possible, over, exact := 0, 0, 0
	alloc.EnumerateSymbolicRange(s, alloc.Options{}, 0, func(c alloc.Candidate) bool {
		possible++
		est := Estimate(s, c.Allocation, Options{})
		implemented := 0.0
		if im := Implement(s, c.Allocation, Options{}, nil); im != nil {
			implemented = im.Flexibility
		}
		switch {
		case est > implemented:
			over++
		case est == implemented:
			exact++
		default:
			t.Errorf("%s: estimate %g below implemented flexibility %g", c.Allocation, est, implemented)
		}
		return true
	})
	if possible != 2371 || over != 1051 || exact != 1320 {
		t.Errorf("possible %d, estimate > implemented %d, exact %d; want 2371, 1051, 1320", possible, over, exact)
	}
}

// TestExhaustiveAgrees validates EXPLORE against the exhaustive
// baseline: identical fronts, far less effort.
func TestExhaustiveAgrees(t *testing.T) {
	s := models.SetTopBox()
	ex := Exhaustive(s, Options{})
	fast := Explore(s, Options{})
	if len(ex.Front) != len(fast.Front) {
		t.Fatalf("front sizes differ: %d vs %d", len(ex.Front), len(fast.Front))
	}
	for i := range ex.Front {
		if ex.Front[i].Cost != fast.Front[i].Cost || ex.Front[i].Flexibility != fast.Front[i].Flexibility {
			t.Errorf("row %d differs: (%v,%v) vs (%v,%v)", i,
				ex.Front[i].Cost, ex.Front[i].Flexibility,
				fast.Front[i].Cost, fast.Front[i].Flexibility)
		}
	}
	if fast.Stats.BindingRuns*10 > ex.Stats.BindingRuns {
		t.Errorf("EXPLORE used %d binding runs, exhaustive %d — expected >10x reduction",
			fast.Stats.BindingRuns, ex.Stats.BindingRuns)
	}
}

// TestStopAtMaxFlex: a default run and a StopAtMaxFlex run share one
// stop rule. Both end where the front reaches maximum flexibility, with
// the same front and the same walk and estimates; they differ only in
// the report: the default run is completed at the stream's length, the
// StopAtMaxFlex run is max-flex at the stop cursor.
func TestStopAtMaxFlex(t *testing.T) {
	s := models.SetTopBox()
	full := Explore(s, Options{})
	early := Explore(s, Options{StopAtMaxFlex: true})
	if len(early.Front) != len(full.Front) {
		t.Fatalf("front sizes differ: %d vs %d", len(early.Front), len(full.Front))
	}
	for i := range full.Front {
		if full.Front[i].Cost != early.Front[i].Cost || full.Front[i].Flexibility != early.Front[i].Flexibility {
			t.Errorf("row %d differs", i)
		}
	}
	if early.Stats.Scanned != full.Stats.Scanned || early.Stats.Estimated != full.Stats.Estimated {
		t.Errorf("StopAtMaxFlex scanned %d, estimated %d; default %d, %d",
			early.Stats.Scanned, early.Stats.Estimated, full.Stats.Scanned, full.Stats.Estimated)
	}
	if full.Reason != ReasonCompleted || full.Cursor != full.Stats.PossibleAllocations {
		t.Errorf("default run: reason %q cursor %d of %d possible, want completed at the end", full.Reason, full.Cursor, full.Stats.PossibleAllocations)
	}
	if early.Reason != ReasonMaxFlex || early.Cursor != early.Stats.Estimated || early.Cursor >= full.Cursor {
		t.Errorf("StopAtMaxFlex run: reason %q cursor %d, want max-flex at the stop cursor %d", early.Reason, early.Cursor, early.Stats.Estimated)
	}
}

// TestFlexBoundAblation: disabling the flexibility-estimation bound
// must not change the front, only the effort.
func TestFlexBoundAblation(t *testing.T) {
	s := models.SetTopBox()
	with := Explore(s, Options{})
	without := Explore(s, Options{DisableFlexBound: true})
	if len(with.Front) != len(without.Front) {
		t.Fatalf("front sizes differ: %d vs %d", len(with.Front), len(without.Front))
	}
	for i := range with.Front {
		if with.Front[i].Cost != without.Front[i].Cost ||
			with.Front[i].Flexibility != without.Front[i].Flexibility {
			t.Errorf("row %d differs", i)
		}
	}
	if without.Stats.Attempted <= with.Stats.Attempted {
		t.Error("ablation should attempt strictly more candidates")
	}
}

// TestRandomSearchBaseline: random search never finds a point outside
// the exact front's dominance region, and with a healthy budget it
// still tends to miss Pareto points that EXPLORE guarantees.
func TestRandomSearchBaseline(t *testing.T) {
	s := models.SetTopBox()
	exact := Explore(s, Options{})
	rs := RandomSearch(s, Options{}, 300, 42)
	exactFront := &pareto.Front{}
	for _, im := range exact.Front {
		exactFront.Add(&pareto.Entry{Objectives: pareto.CostFlexObjectives(im.Cost, im.Flexibility)})
	}
	for _, im := range rs.Front {
		obj := pareto.CostFlexObjectives(im.Cost, im.Flexibility)
		if !exactFront.DominatesPoint(obj) {
			t.Errorf("random search found %v outside the exact front", im)
		}
	}
}

// TestEvolutionaryBaseline (experiment E11): the EA approximates the
// front; every EA point is covered by the exact front, and the EA finds
// at least the extreme points with the default budget.
func TestEvolutionaryBaseline(t *testing.T) {
	s := models.SetTopBox()
	exact := Explore(s, Options{})
	ea := Evolutionary(s, Options{}, 1)
	exactFront := &pareto.Front{}
	for _, im := range exact.Front {
		exactFront.Add(&pareto.Entry{Objectives: pareto.CostFlexObjectives(im.Cost, im.Flexibility)})
	}
	for _, im := range ea.Front {
		if !exactFront.DominatesPoint(pareto.CostFlexObjectives(im.Cost, im.Flexibility)) {
			t.Errorf("EA found %v outside the exact front", im)
		}
	}
	if len(ea.Front) < 3 {
		t.Errorf("EA found only %d front points; expected at least 3", len(ea.Front))
	}
}

// TestWeightedExploration (experiment E10): the footnote-2 weighted
// metric reshapes the front; doubling the browser's weight raises the
// flexibility of every implementation containing γI by 1.
func TestWeightedExploration(t *testing.T) {
	s := models.SetTopBox()
	s.Problem.ClusterByID("gI").Attrs = hgraph.Attrs{spec.AttrWeight: 2}
	r := Explore(s, Options{Weighted: true})
	if r.MaxFlexibility != 9 {
		t.Errorf("weighted max flexibility = %v, want 9", r.MaxFlexibility)
	}
	if len(r.Front) == 0 {
		t.Fatal("empty weighted front")
	}
	first := r.Front[0]
	if first.Cost != 100 || first.Flexibility != 3 {
		t.Errorf("first weighted row = (%v,%v), want (100,3)", first.Cost, first.Flexibility)
	}
	last := r.Front[len(r.Front)-1]
	if last.Flexibility != 9 {
		t.Errorf("last weighted row f = %v, want 9", last.Flexibility)
	}
}

// TestDecoderExploration explores the Fig. 2 decoder: the front is
// (50,1) μP alone, (75,2) one FPGA design added, (95,3) both FPGA
// designs (time-multiplexed reconfiguration), (180,4) ASIC + D3 design
// for the full decoder family — with the reconstructed costs.
func TestDecoderExploration(t *testing.T) {
	s := models.Decoder()
	r := Explore(s, Options{})
	want := [][2]float64{{50, 1}, {75, 2}, {95, 3}, {180, 4}}
	if len(r.Front) != len(want) {
		t.Fatalf("decoder front size = %d, want %d: %v", len(r.Front), len(want), r.Front)
	}
	for i, w := range want {
		if r.Front[i].Cost != w[0] || r.Front[i].Flexibility != w[1] {
			t.Errorf("row %d = (%v,%v), want (%v,%v)", i, r.Front[i].Cost, r.Front[i].Flexibility, w[0], w[1])
		}
	}
	if r.MaxFlexibility != 4 {
		t.Errorf("decoder max flexibility = %v, want 4", r.MaxFlexibility)
	}
}

// TestTimingPolicyAblation: with exact RTA instead of the paper's 69 %
// estimate, the game console fits on μP2 (utilization 0.77 but worst
// response 185 ≤ 240), so the cheapest implementation gains γG1.
func TestTimingPolicyAblation(t *testing.T) {
	s := models.SetTopBox()
	im := Implement(s, spec.NewAllocation("uP2"), Options{Timing: bind.TimingRTA}, nil)
	if im == nil {
		t.Fatal("uP2 should be implementable")
	}
	if im.Flexibility != 3 {
		t.Errorf("f(uP2) under RTA = %v, want 3 (game console accepted)", im.Flexibility)
	}
}

// TestFrontTable renders without panicking and contains each row.
func TestFrontTable(t *testing.T) {
	s := models.SetTopBox()
	r := Explore(s, Options{})
	table := r.FrontTable(s.Problem.Root.ID)
	for _, sub := range []string{"uP2", "uP1", "$  100", "$  430", "Resources"} {
		if !containsStr(table, sub) {
			t.Errorf("table lacks %q:\n%s", sub, table)
		}
	}
}

func containsStr(haystack, needle string) bool {
	return len(haystack) >= len(needle) && indexStr(haystack, needle) >= 0
}

func indexStr(h, n string) int {
	for i := 0; i+len(n) <= len(h); i++ {
		if h[i:i+len(n)] == n {
			return i
		}
	}
	return -1
}

// Property: on synthetic specifications, EXPLORE and the exhaustive
// baseline return identical fronts, and front flexibility increases
// strictly with cost.
func TestPropExploreMatchesExhaustive(t *testing.T) {
	prop := func(seed int64) bool {
		p := models.SyntheticParams{
			Seed: seed % 100, Apps: 2, Depth: 1, Branch: 2, Vertices: 1,
			Processors: 1, ASICs: 1, Designs: 1, Buses: 2, TimedFraction: 0.4,
		}
		s := models.Synthetic(p)
		fast := Explore(s, Options{})
		ex := Exhaustive(s, Options{})
		if len(fast.Front) != len(ex.Front) {
			return false
		}
		prevF := 0.0
		for i := range fast.Front {
			if fast.Front[i].Cost != ex.Front[i].Cost ||
				fast.Front[i].Flexibility != ex.Front[i].Flexibility {
				return false
			}
			if fast.Front[i].Flexibility <= prevF {
				return false
			}
			prevF = fast.Front[i].Flexibility
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: every explored front point's implementation is internally
// consistent — cost matches the allocation, flexibility matches the
// cluster set.
func TestPropFrontConsistency(t *testing.T) {
	prop := func(seed int64) bool {
		p := models.DefaultSynthetic(seed % 50)
		p.ASICs, p.Designs, p.Buses = 1, 1, 2
		s := models.Synthetic(p)
		r := Explore(s, Options{})
		for _, im := range r.Front {
			if im.Cost != im.Allocation.Cost(s) {
				return false
			}
			re := Implement(s, im.Allocation, Options{}, nil)
			if re == nil || re.Flexibility != im.Flexibility {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func BenchmarkExploreCaseStudy(b *testing.B) {
	s := models.SetTopBox()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := Explore(s, Options{})
		if len(r.Front) != 6 {
			b.Fatal("wrong front")
		}
	}
}

func BenchmarkExhaustiveCaseStudy(b *testing.B) {
	s := models.SetTopBox()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := Exhaustive(s, Options{})
		if len(r.Front) != 6 {
			b.Fatal("wrong front")
		}
	}
}

func BenchmarkImplement(b *testing.B) {
	s := models.SetTopBox()
	a := spec.NewAllocation("uP2", "A1", "dD3", "C1", "C2")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if im := Implement(s, a, Options{}, nil); im == nil {
			b.Fatal("should implement")
		}
	}
}

// TestPropReduceMatchesEstimate: the paper computes the flexibility
// estimation on the reduced specification graph; our Estimate shortcut
// (supportable-cluster activation) must agree with the maximum
// flexibility of spec.Reduce's explicit reduction.
func TestPropReduceMatchesEstimate(t *testing.T) {
	s := models.SetTopBox()
	units := alloc.Units(s)
	prop := func(seed int64) bool {
		a := spec.Allocation{}
		bits := seed
		if bits < 0 {
			bits = -bits
		}
		for _, u := range units {
			if bits&1 == 1 {
				a[u.ID] = true
			}
			bits >>= 1
		}
		reduced, err := s.Reduce(a)
		if !alloc.Possible(s, a) {
			return err != nil
		}
		if err != nil {
			return false
		}
		return flex.MaxFlexibility(reduced.Problem) == Estimate(s, a, Options{})
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestIndustrialScaleWithinSeconds backs the paper's closing claim that
// "industrial size applications can be efficiently explored within
// minutes": a synthetic specification with a 2^71-design-point space is
// explored to its full front in a few seconds on a laptop-class core.
func TestIndustrialScaleWithinSeconds(t *testing.T) {
	if testing.Short() {
		t.Skip("industrial-scale exploration skipped in -short mode")
	}
	p := models.SyntheticParams{
		Seed: 3, Apps: 4, Depth: 2, Branch: 3, Vertices: 2,
		Processors: 3, ASICs: 4, Designs: 4, Buses: 8,
		TimedFraction: 0.3, AccelOnlyFraction: 0.3,
	}
	s := models.Synthetic(p)
	start := time.Now()
	r := Explore(s, Options{StopAtMaxFlex: true, MaxScan: 200000})
	elapsed := time.Since(start)
	if len(r.Front) == 0 {
		t.Fatal("no front found")
	}
	if r.Stats.DesignSpace < 1e20 {
		t.Errorf("design space = %v, want > 1e20", r.Stats.DesignSpace)
	}
	if elapsed > 60*time.Second {
		t.Errorf("exploration took %v, want well under a minute", elapsed)
	}
	t.Logf("explored %.3g design points to a %d-point front in %v",
		r.Stats.DesignSpace, len(r.Front), elapsed)
}

// TestResultJSON: the exploration result serializes deterministically
// with the published numbers embedded.
func TestResultJSON(t *testing.T) {
	s := models.SetTopBox()
	r := Explore(s, Options{})
	data, err := r.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		MaxFlexibility float64 `json:"maxFlexibility"`
		Front          []struct {
			Allocation  []string `json:"allocation"`
			Cost        float64  `json:"cost"`
			Flexibility float64  `json:"flexibility"`
		} `json:"front"`
		Stats struct {
			DesignSpace float64 `json:"designSpace"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.MaxFlexibility != 8 || len(decoded.Front) != 6 {
		t.Errorf("decoded maxFlex=%v front=%d", decoded.MaxFlexibility, len(decoded.Front))
	}
	if decoded.Front[0].Cost != 100 || decoded.Front[5].Flexibility != 8 {
		t.Error("front rows wrong in JSON")
	}
	if decoded.Stats.DesignSpace != 1<<25 {
		t.Errorf("design space in JSON = %v", decoded.Stats.DesignSpace)
	}
	again, err := r.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Error("JSON encoding not deterministic")
	}
}
