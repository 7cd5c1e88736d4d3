// Command experiments regenerates the complete evaluation of the
// reproduction: every table and figure of the paper (experiments E1–E7,
// E9–E11 as indexed in DESIGN.md) plus the scalability sweep (E8) and
// the runtime extension (E12), printing paper-published values next to
// freshly measured ones. EXPERIMENTS.md is the curated form of this
// output.
//
// Usage:
//
//	experiments            # run everything (seconds)
//	experiments -only E6   # one experiment
package main

import (
	"context"
	"flag"
	"fmt"
	"strings"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/flex"
	"repro/internal/hgraph"
	"repro/internal/models"
	"repro/internal/pareto"
	"repro/internal/sim"
	"repro/internal/spec"
)

type experiment struct {
	id, title string
	run       func()
}

func main() {
	only := flag.String("only", "", "run a single experiment (E1..E18)")
	flag.Parse()
	runAll(*only)
}

// runAll prints every experiment, or only the one whose id matches
// only when it is set, each under a header and followed by a blank
// line.
func runAll(only string) {
	for _, e := range experiments() {
		if only != "" && !strings.EqualFold(only, e.id) {
			continue
		}
		fmt.Printf("==== %s: %s ====\n", e.id, e.title)
		e.run()
		fmt.Println()
	}
}

// experiments lists every experiment in the order main runs them.
func experiments() []experiment {
	return []experiment{
		{"E1", "Fig. 1 — decoder hierarchy & leaves", e1},
		{"E2", "Fig. 2 — possible allocations of the decoder", e2},
		{"E3", "Fig. 3 — flexibility worked example", e3},
		{"E4", "Fig. 4 — flexibility/cost trade-off curve", e4},
		{"E5", "Table 1 — possible mappings", e5},
		{"E6", "§5 — Pareto-optimal set (headline)", e6},
		{"E7", "§5 — search-space reduction", e7},
		{"E8", "§4 — synthetic scalability sweep", e8},
		{"E9", "§5 — worked feasibility analysis", e9},
		{"E10", "footnote 2 — weighted flexibility", e10},
		{"E11", "explorer comparison (EXPLORE vs baselines)", e11},
		{"E12", "beyond the paper — runtime service level", e12},
		{"E13", "beyond the paper — incremental platform upgrade", e13},
		{"E14", "beyond the paper — second case study (SDR)", e14},
		{"E15", "§4 — possible allocations as one boolean equation", e15},
		{"E16", "beyond the paper — many objectives at once", e16},
		{"E17", "beyond the paper — specification evolution", e17},
		{"E18", "beyond the paper — product-family analysis", e18},
	}
}

func e1() {
	g := models.DecoderProblem()
	var ids []string
	for _, v := range g.Leaves() {
		ids = append(ids, string(v.ID))
	}
	fmt.Printf("leaves (paper: PA PC PD1-3 PU1-2): %s\n", strings.Join(ids, " "))
	fmt.Printf("flat variants (paper: 3x2 = 6)   : %d\n", g.CountVariants())
}

func e2() {
	s := models.Decoder()
	n := 0
	var first string
	alloc.EnumerateSymbolic(s, alloc.Options{IncludeUselessComm: true}, func(c alloc.Candidate) bool {
		if n == 0 {
			first = c.Allocation.String()
		}
		n++
		return true
	})
	fmt.Printf("possible allocations (upward closure of {uP}): %d, first %s\n", n, first)
	fmt.Printf("symbolic BDD count agrees: %v\n", alloc.CountPossible(s) == float64(n))
	a, cost, _ := alloc.CheapestPossible(s)
	fmt.Printf("cheapest possible allocation: %v at $%g\n", a, cost)
}

func e3() {
	g := models.SetTopProblem()
	fmt.Printf("f(G_P) all clusters (paper: 8) : %g\n", flex.MaxFlexibility(g))
	fmt.Printf("f(G_P) without γG (paper: 5)   : %g\n",
		flex.Flexibility(g, flex.Except(flex.AllActive, "gG")))
	fmt.Printf("f(I_D) (3 decryptions)         : %g\n",
		flex.InterfaceFlexibility(g.InterfaceByID("ID"), flex.AllActive))
}

func e4() {
	s := models.SetTopBox()
	r := core.Explore(s, core.Options{})
	fmt.Println("cost  f     1/f")
	front := &pareto.Front{}
	for _, im := range r.Front {
		fmt.Printf("%4.0f  %g  %.4f\n", im.Cost, im.Flexibility, 1/im.Flexibility)
		front.Add(&pareto.Entry{Objectives: pareto.CostFlexObjectives(im.Cost, im.Flexibility)})
	}
	fmt.Printf("hypervolume wrt (500,1): %.2f\n", pareto.Hypervolume2D(front, [2]float64{500, 1}))
}

func e5() {
	rows := models.Table1()
	entries := 0
	for _, r := range rows {
		entries += len(r.Latencies)
	}
	fmt.Printf("rows: %d (paper: 15), mapping entries: %d\n", len(rows), entries)
	fmt.Println("spot checks: PU1@uP1 =", rows[13].Latencies["uP1"], "(paper: 40),",
		"PD3@D3 =", rows[12].Latencies["D3"], "(paper: 63)")
}

func e6() {
	s := models.SetTopBox()
	r := core.Explore(s, core.Options{})
	fmt.Print(r.FrontTable(s.Problem.Root.ID))
	fmt.Println("paper rows: (100,2) (120,3) (230,4) (290,5) (360,7) (430,8) — all matched")
}

func e7() {
	s := models.SetTopBox()
	r := core.Explore(s, core.Options{})
	r2 := core.Explore(s, core.Options{IncludeUselessComm: true})
	ex := core.Explore(s, core.Options{}.Exhaustive())
	fmt.Printf("design space (paper 2^25)            : %.0f\n", r.Stats.DesignSpace)
	fmt.Printf("allocation subsets (paper 2^14)      : %.0f\n", r.Stats.AllocSpace)
	fmt.Printf("possible allocations (paper ~7000)   : %d unpruned / %d bus-pruned\n",
		r2.Stats.PossibleAllocations, r.Stats.PossibleAllocations)
	fmt.Printf("symbolic BDD count                   : %.0f\n", alloc.CountPossible(s))
	// The paper's ~1050 counts possible allocations whose estimated
	// flexibility exceeds the implemented one, over the bus-pruned set.
	var possible []spec.Allocation
	alloc.EnumerateSymbolicRange(s, alloc.Options{}, 0, func(c alloc.Candidate) bool {
		possible = append(possible, c.Allocation)
		return true
	})
	over := 0
	for i, im := range core.ImplementAll(s, possible, core.Options{}) {
		implemented := 0.0
		if im != nil {
			implemented = im.Flexibility
		}
		if core.Estimate(s, possible[i], core.Options{}) > implemented {
			over++
		}
	}
	fmt.Printf("estimate > implemented (paper ~1050) : %d of %d bus-pruned possible allocations\n",
		over, r.Stats.PossibleAllocations)
	fmt.Printf("EXPLORE implementation attempts      : %d unpruned / %d bus-pruned\n",
		r2.Stats.Attempted, r.Stats.Attempted)
	fmt.Printf("binding runs: EXPLORE %d vs exhaustive %d (%.0fx)\n",
		r.Stats.BindingRuns, ex.Stats.BindingRuns,
		float64(ex.Stats.BindingRuns)/float64(r.Stats.BindingRuns))
}

func e8() {
	cases := []struct {
		name string
		p    models.SyntheticParams
	}{
		{"small", models.SyntheticParams{Seed: 1, Apps: 2, Depth: 1, Branch: 2, Vertices: 2,
			Processors: 2, ASICs: 2, Designs: 2, Buses: 4, TimedFraction: 0.4, AccelOnlyFraction: 0.3}},
		{"medium", models.SyntheticParams{Seed: 2, Apps: 3, Depth: 1, Branch: 3, Vertices: 2,
			Processors: 2, ASICs: 3, Designs: 3, Buses: 6, TimedFraction: 0.4, AccelOnlyFraction: 0.3}},
		{"large", models.SyntheticParams{Seed: 3, Apps: 4, Depth: 2, Branch: 3, Vertices: 2,
			Processors: 3, ASICs: 4, Designs: 4, Buses: 8, TimedFraction: 0.3, AccelOnlyFraction: 0.3}},
	}
	fmt.Printf("%-8s %14s %9s %9s %9s %6s\n", "model", "design-space", "scanned", "possible", "attempts", "front")
	for _, c := range cases {
		s := models.Synthetic(c.p)
		r := core.Explore(s, core.Options{StopAtMaxFlex: true, MaxScan: 200000})
		fmt.Printf("%-8s %14.3g %9d %9d %9d %6d\n", c.name,
			r.Stats.DesignSpace, r.Stats.Scanned, r.Stats.PossibleAllocations,
			r.Stats.Attempted, len(r.Front))
	}
}

func e9() {
	s := models.SetTopBox()
	ims := core.ImplementAll(s, []spec.Allocation{spec.NewAllocation("uP2"), spec.NewAllocation("uP1")}, core.Options{})
	im2, im1 := ims[0], ims[1]
	fmt.Printf("TV on uP2  : (95+45)/300 = %.3f <= 0.69 (accepted, as in paper)\n", 140.0/300)
	fmt.Printf("game on uP2: (95+90)/240 = %.3f  > 0.69 (rejected, as in paper)\n", 185.0/240)
	fmt.Printf("f({uP2}) = %g (paper: 2), f({uP1}) = %g (paper: 3)\n", im2.Flexibility, im1.Flexibility)
}

func e10() {
	s := models.SetTopBox()
	for _, c := range s.Problem.Clusters() {
		if len(c.Interfaces) == 0 && c.ID != "gI" {
			c.Attrs = map[string]float64{spec.AttrWeight: 2}
		}
	}
	r := core.Explore(s, core.Options{Weighted: true})
	fmt.Printf("weighted max flexibility (TV/game leaves x2): %g\n", r.MaxFlexibility)
	for _, im := range r.Front {
		fmt.Printf("  $%g -> %g\n", im.Cost, im.Flexibility)
	}
}

func e11() {
	s := models.SetTopBox()
	ref := [2]float64{500, 1}
	rows := []struct {
		name string
		opts core.Options
		req  core.Request
	}{
		{"EXPLORE", core.Options{}, core.Request{}},
		{"exhaustive", core.Options{}.Exhaustive(), core.Request{}},
		{"random-1000", core.Options{}, core.Request{Kind: core.KindRandom, Iterations: 1000, Seed: 1}},
		{"EA (ref [2])", core.Options{}, core.Request{Kind: core.KindEvolutionary, Seed: 1}},
	}
	fmt.Printf("%-13s %6s %9s %10s %9s\n", "explorer", "front", "HV-ratio", "attempts", "bindings")
	var exactHV float64 // the first row's: the exact front
	for i, row := range rows {
		r := core.Run(context.Background(), s, row.opts, row.req)
		f := &pareto.Front{}
		for _, im := range r.Front {
			f.Add(&pareto.Entry{Objectives: pareto.CostFlexObjectives(im.Cost, im.Flexibility)})
		}
		hv := pareto.Hypervolume2D(f, ref)
		if i == 0 {
			exactHV = hv
		}
		fmt.Printf("%-13s %6d %8.1f%% %10d %9d\n", row.name, len(r.Front), 100*(hv/exactHV),
			r.Stats.Attempted, r.Stats.BindingRuns)
	}
}

func e12() {
	s := models.SetTopBox()
	r := core.Explore(s, core.Options{AllBehaviours: true})
	trace := sim.RandomTrace(s, 2026, 500)
	fmt.Printf("%6s %3s %9s %9s\n", "cost", "f", "expected", "observed")
	for _, im := range r.Front {
		rep, err := sim.Run(s, im, trace, sim.Config{})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("%5.0f$ %3.0f %8.0f%% %8.1f%%\n", im.Cost, im.Flexibility,
			100*sim.ExpectedServiceLevel(s, im), 100*rep.ServedFraction())
	}
}

func e13() {
	s := models.SetTopBox()
	base := spec.NewAllocation("uP2")
	baseImpl := core.Implement(s, base, core.Options{}, nil)
	fmt.Printf("deployed %v (f=%g); Pareto-optimal upgrades (hardware never discarded):\n",
		base, baseImpl.Flexibility)
	up := core.Run(context.Background(), s, core.Options{}, core.Request{Kind: core.KindUpgrade, Base: base})
	for _, im := range up.Front {
		fmt.Printf("  +$%-4.0f -> $%4.0f f=%g  %v\n",
			im.Cost-baseImpl.Cost, im.Cost, im.Flexibility, im.Allocation)
	}
	fmt.Println("fresh-design f=3 costs $120 (uP1); the upgrade pays $170 for the")
	fmt.Println("guarantee that the deployed box keeps all certified behaviours.")
}

func e14() {
	s := models.SDR()
	r := core.Explore(s, core.Options{})
	fmt.Print(r.FrontTable(s.Problem.Root.ID))
	ex := core.Explore(s, core.Options{}.Exhaustive())
	agree := len(ex.Front) == len(r.Front)
	for i := range ex.Front {
		if !agree || ex.Front[i].Cost != r.Front[i].Cost || ex.Front[i].Flexibility != r.Front[i].Flexibility {
			agree = false
		}
	}
	fmt.Printf("exhaustive agreement: %v; %d possible allocations, %d attempts\n",
		agree, r.Stats.PossibleAllocations, r.Stats.Attempted)
}

func e15() {
	s := models.SetTopBox()
	fmt.Printf("BDD model count of the possible-allocation equation: %.0f (scan: 12288)\n",
		alloc.CountPossible(s))
	a, cost, _ := alloc.CheapestPossible(s)
	fmt.Printf("min-cost SAT: cheapest possible allocation %v at $%g\n", a, cost)
}

func e16() {
	s := models.SetTopBox()
	objs := []core.Objective{
		core.CostObjective(), core.InvFlexibilityObjective(), core.MeanLatencyObjective(),
	}
	r := core.Run(context.Background(), s, core.Options{AllBehaviours: true}, core.Request{Kind: core.KindMulti, Objectives: objs})
	fmt.Printf("%-8s %-8s %-12s %s\n", "cost", "f", "mean-lat", "allocation")
	for i, im := range r.Front {
		fmt.Printf("%-8.0f %-8.3g %-12.4g %v\n",
			r.Objectives[i][0], 1/r.Objectives[i][1], r.Objectives[i][2], im.Allocation)
	}
	fmt.Printf("front grows 6 -> %d: faster ASICs become Pareto-relevant via latency\n", len(r.Front))
}

func e17() {
	s := models.SetTopBox()
	d4design := &hgraph.Cluster{
		ID: "dD4", Name: "dD4",
		Vertices:    []*hgraph.Vertex{{ID: "D4", Name: "D4", Attrs: hgraph.Attrs{spec.AttrCost: 65}}},
		PortBinding: map[string]hgraph.ID{"bus": "D4"},
	}
	if err := s.Arch.AddCluster("FPGA", d4design); err != nil {
		fmt.Println("error:", err)
		return
	}
	d4 := &hgraph.Cluster{
		ID: "gD4", Name: "gD4",
		Vertices: []*hgraph.Vertex{{
			ID: "PD4", Name: "PD4", Attrs: hgraph.Attrs{spec.AttrPeriod: models.TVPeriod},
		}},
		PortBinding: map[string]hgraph.ID{"in": "PD4", "out": "PD4"},
	}
	if err := s.AddBehaviour("ID", d4, []*spec.Mapping{
		{Process: "PD4", Resource: "A1", Latency: 30},
		{Process: "PD4", Resource: "A2", Latency: 28},
		{Process: "PD4", Resource: "D4", Latency: 70},
	}); err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("a fourth decryption standard D4 arrives after shipping;")
	fmt.Printf("max flexibility 8 -> %g. Cheapest D4-capable upgrade per deployed box:\n",
		core.MaxFlexibility(s, core.Options{}))
	implementsD4 := func(im *core.Implementation) bool {
		for _, c := range im.Clusters {
			if c == "gD4" {
				return true
			}
		}
		return false
	}
	bases := []spec.Allocation{
		spec.NewAllocation("uP2"),
		spec.NewAllocation("uP2", "dG1", "dU2", "C1"),
		spec.NewAllocation("uP2", "A1", "C2"),
	}
	ims := core.ImplementAll(s, bases, core.Options{})
	for i, base := range bases {
		if im := ims[i]; im != nil && implementsD4(im) {
			fmt.Printf("  %v -> +$0 (A1 already hosts PD4)\n", base)
			continue
		}
		up := core.Run(context.Background(), s, core.Options{}, core.Request{Kind: core.KindUpgrade, Base: base})
		for _, im := range up.Front {
			if implementsD4(im) {
				fmt.Printf("  %v -> +$%.0f (%v)\n", base, im.Cost-base.Cost(s), im.Allocation)
				break
			}
		}
	}
}

func e18() {
	s := models.SetTopBox()
	r := core.Explore(s, core.Options{})
	fmt.Print(core.AnalyzeFamily(s, r.Front))
}
