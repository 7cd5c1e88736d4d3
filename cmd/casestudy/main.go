// Command casestudy reproduces the paper's Section 5 evaluation on the
// Set-Top box specification: Table 1, the Pareto-optimal set, the
// search-space reduction statistics, and the Fig. 4 trade-off curve.
//
// Usage:
//
//	casestudy                  # run EXPLORE, print the Pareto table + stats
//	casestudy -table1          # print Table 1 (possible mappings)
//	casestudy -tradeoff        # print the Fig. 4 trade-off curve as TSV
//	casestudy -compare         # compare EXPLORE, exhaustive, random, EA
//	casestudy -timing=rta      # ablation: exact response-time analysis
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"

	"repro/internal/activation"
	"repro/internal/bind"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/hgraph"
	"repro/internal/lint"
	"repro/internal/listsched"
	"repro/internal/models"
	"repro/internal/profiling"
	"repro/internal/spec"
)

// paperName maps internal unit IDs to the paper's component names.
func paperName(id hgraph.ID) string {
	switch id {
	case "dD3":
		return "D3"
	case "dU2":
		return "U2"
	case "dG1":
		return "G1"
	default:
		return strings.Replace(string(id), "uP", "uP", 1)
	}
}

func allocString(im *core.Implementation) string {
	var parts []string
	for _, id := range im.Allocation.IDs() {
		parts = append(parts, paperName(id))
	}
	sort.Strings(parts)
	return strings.Join(parts, ", ")
}

func clusterString(im *core.Implementation) string {
	var parts []string
	for _, c := range im.Clusters {
		cs := string(c)
		// Only the leaf clusters are listed in the paper's table.
		switch cs {
		case "GP", "gG", "gD":
			continue
		}
		parts = append(parts, "y"+strings.TrimPrefix(cs, "g"))
	}
	sort.Strings(parts)
	return strings.Join(parts, ", ")
}

func timingPolicy(name string) bind.TimingPolicy {
	switch name {
	case "none":
		return bind.TimingNone
	case "ll", "liu-layland":
		return bind.TimingLiuLayland
	case "rta":
		return bind.TimingRTA
	default:
		return bind.TimingPaper
	}
}

// cliFlags carries the parsed command line for validation; explicit
// indicates which flags the user actually set (flag.Visit), so
// incompatible-combination checks do not misfire on defaults.
type cliFlags struct {
	table1          bool
	tradeoff        bool
	compare         bool
	verify          bool
	family          bool
	timeout         time.Duration
	checkpoint      string
	checkpointEvery int
	resume          bool
	cache           string
	workers         int
	prof            profiling.Flags
	explicit        map[string]bool
}

// modeSelected reports whether a non-default analysis mode is active
// (they all preclude checkpointing and parallel workers).
func (f *cliFlags) modeSelected() bool {
	return f.table1 || f.tradeoff || f.compare || f.verify || f.family
}

// problems returns every reason the flag combination is rejected; a
// non-empty result exits with status 2 before any exploration starts.
func (f *cliFlags) problems() []string {
	var out []string
	if (f.checkpoint != "" || f.resume) && f.modeSelected() {
		out = append(out, "-checkpoint/-resume only apply to the default Pareto run")
	}
	if f.resume && f.checkpoint == "" {
		out = append(out, "-resume requires -checkpoint")
	}
	if f.checkpointEvery <= 0 {
		out = append(out, "-checkpoint-every must be > 0")
	}
	if f.explicit["checkpoint-every"] && f.checkpoint == "" {
		out = append(out, "-checkpoint-every requires -checkpoint (there is no snapshot file to write)")
	}
	if f.timeout < 0 {
		out = append(out, "-timeout must be >= 0")
	}
	if f.cache != "on" && f.cache != "off" {
		out = append(out, "-cache must be on or off")
	}
	if f.workers < 0 {
		out = append(out, "-workers must be >= 0 (0 selects GOMAXPROCS)")
	}
	if f.workers != 1 && f.modeSelected() {
		out = append(out, "-workers only applies to the default Pareto run")
	}
	out = append(out, f.prof.Problems()...)
	return out
}

func main() {
	os.Exit(run())
}

// run is main minus the exit: returning (instead of os.Exit) lets the
// deferred profiling teardown flush -cpuprofile/-memprofile/-trace on
// every path.
func run() int {
	table1 := flag.Bool("table1", false, "print Table 1 (possible mappings and latencies)")
	tradeoff := flag.Bool("tradeoff", false, "print the Fig. 4 flexibility/cost trade-off as TSV")
	compare := flag.Bool("compare", false, "compare EXPLORE against exhaustive, random and EA baselines")
	verify := flag.Bool("verify", false, "re-verify every front implementation end to end (binding rules, schedules, activation rules)")
	family := flag.Bool("family", false, "product-family analysis of the front (entry costs, commonality, marginal costs)")
	timing := flag.String("timing", "paper", "timing policy: paper|rta|ll|none")
	weighted := flag.Bool("weighted", false, "use the weighted flexibility metric (footnote 2)")
	lintMode := flag.String("lint", "on", "preflight static analysis: on | off (see docs/lint-codes.md)")
	timeout := flag.Duration("timeout", 0, "stop after this duration and print the best-so-far result (0 = no limit)")
	ckPath := flag.String("checkpoint", "", "periodically write an atomic resume snapshot (default run only)")
	ckEvery := flag.Int("checkpoint-every", 64, "candidates between periodic checkpoints")
	resume := flag.Bool("resume", false, "continue from the -checkpoint snapshot (default run only)")
	cache := flag.String("cache", "on", "cross-candidate evaluation caches: on | off (off is the uncached differential/ablation baseline)")
	workers := flag.Int("workers", 1, "parallel exploration workers for the default run (0 = GOMAXPROCS); the front is identical to sequential")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	tracePath := flag.String("trace", "", "write a runtime execution trace to this file")
	flag.Parse()

	fl := &cliFlags{
		table1: *table1, tradeoff: *tradeoff, compare: *compare, verify: *verify,
		family: *family, timeout: *timeout, checkpoint: *ckPath, checkpointEvery: *ckEvery,
		resume: *resume, cache: *cache, workers: *workers,
		prof:     profiling.Flags{CPUProfile: *cpuProfile, MemProfile: *memProfile, Trace: *tracePath},
		explicit: map[string]bool{},
	}
	flag.Visit(func(f *flag.Flag) { fl.explicit[f.Name] = true })
	if probs := fl.problems(); len(probs) > 0 {
		for _, p := range probs {
			fmt.Fprintln(os.Stderr, "casestudy:", p)
		}
		return 2
	}
	stopProf, err := fl.prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "casestudy:", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "casestudy:", err)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	s := models.SetTopBox()
	if *lintMode != "off" {
		if err := lint.Preflight(s, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "casestudy:", err, "(rerun with -lint=off to explore anyway)")
			return 1
		}
	}
	opts := core.Options{Timing: timingPolicy(*timing), Weighted: *weighted, DisableCache: *cache == "off"}

	switch {
	case *table1:
		printTable1()
	case *tradeoff:
		r := core.ExploreContext(ctx, s, opts)
		var pts []dot.TradeoffPoint
		for _, im := range r.Front {
			pts = append(pts, dot.TradeoffPoint{
				Cost: im.Cost, Flexibility: im.Flexibility, Label: allocString(im),
			})
		}
		fmt.Print(dot.TradeoffTSV(pts))
	case *compare:
		return compareExplorers(ctx, s, opts)
	case *verify:
		return verifyFront(ctx, s, opts)
	case *family:
		r := core.ExploreContext(ctx, s, opts)
		fmt.Print(core.AnalyzeFamily(s, r.Front))
	default:
		var writer *checkpoint.Writer
		if *ckPath != "" {
			writer = &checkpoint.Writer{Path: *ckPath}
			opts.ProgressEvery = *ckEvery
			opts.Progress = func(p core.Progress) {
				snap, err := checkpoint.Capture(s, opts, p)
				if err == nil {
					err = writer.Save(snap)
				}
				if err != nil {
					fmt.Fprintln(os.Stderr, "casestudy:", err)
				}
			}
		}
		if *resume {
			snap, err := checkpoint.Load(*ckPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "casestudy:", err)
				return 1
			}
			res, err := snap.Resume(s, opts)
			if err != nil {
				fmt.Fprintln(os.Stderr, "casestudy:", err)
				return 1
			}
			opts.Resume = res
			fmt.Fprintf(os.Stderr, "casestudy: resuming at candidate %d (%d front entries)\n",
				snap.Cursor, len(snap.Front))
		}
		var r *core.Result
		if *workers != 1 {
			r = core.ExploreParallelContext(ctx, s, opts, *workers, 0)
		} else {
			r = core.ExploreContext(ctx, s, opts)
		}
		if writer != nil {
			snap, err := checkpoint.FromResult(s, opts, r)
			if err == nil {
				err = writer.Save(snap)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "casestudy:", err)
			}
		}
		if r.Interrupted {
			fmt.Fprintf(os.Stderr, "casestudy: interrupted (%s) at candidate %d; the table below covers the explored prefix\n",
				r.Reason, r.Cursor)
		}
		fmt.Println("Set-Top box case study (Section 5) — Pareto-optimal set:")
		fmt.Println()
		fmt.Printf("%-26s | %-40s | %6s | %2s\n", "Resources", "Clusters", "c", "f")
		fmt.Println(strings.Repeat("-", 84))
		for _, im := range r.Front {
			fmt.Printf("%-26s | %-40s | $%5.0f | %2.0f\n",
				allocString(im), clusterString(im), im.Cost, im.Flexibility)
		}
		fmt.Println()
		st := r.Stats
		fmt.Printf("design space        : 2^25 = %.0f design points\n", st.DesignSpace)
		fmt.Printf("allocation subsets  : 2^14 = %.0f (%d BDD nodes visited in cost order)\n", st.AllocSpace, st.Scanned)
		fmt.Printf("possible allocations: %d (flexibility estimated for each)\n", st.PossibleAllocations)
		fmt.Printf("implementations     : %d attempted, %d feasible\n", st.Attempted, st.Feasible)
		fmt.Printf("binding solver      : %d runs over %d behaviours (%d search nodes)\n",
			st.BindingRuns, st.ECSTested, st.BindingNodes)
		if c := st.Cache; c != (core.CacheStats{}) {
			fmt.Printf("evaluation caches   : %d bindings reused / %d solved, flatten %d/%d hits (problem/arch)\n",
				c.BindHits(), c.BindMisses, c.FlattenHits, c.ArchFlattenHits)
		}
		if p := st.Pipeline; p.Workers > 0 {
			fmt.Printf("parallel pipeline   : %d workers, queue %d (high water %d), %d commit stalls, %s busy\n",
				p.Workers, p.QueueDepth, p.QueueHighWater, p.CommitStalls,
				time.Duration(p.BusyNanos).Round(time.Millisecond))
			fmt.Printf("range jobs          : %d committed (batch size %d), %d bound publishes\n",
				p.BatchesCommitted, p.BatchSize, p.BoundPublishes)
		}
		fmt.Printf("maximum flexibility : %g\n", r.MaxFlexibility)
	}
	return 0
}

func printTable1() {
	resources := []hgraph.ID{"uP1", "uP2", "A1", "A2", "A3", "D3", "U2", "G1"}
	fmt.Printf("%-8s", "Process")
	for _, r := range resources {
		fmt.Printf(" %5s", r)
	}
	fmt.Println()
	fmt.Println(strings.Repeat("-", 8+6*len(resources)))
	for _, row := range models.Table1() {
		fmt.Printf("%-8s", row.Process)
		for _, r := range resources {
			if lat, ok := row.Latencies[r]; ok {
				fmt.Printf(" %5.0f", lat)
			} else {
				fmt.Printf(" %5s", "-")
			}
		}
		fmt.Println()
	}
}

func compareExplorers(ctx context.Context, s *spec.Spec, opts core.Options) int {
	type run struct {
		name string
		res  *core.Result
	}
	runs := []run{
		{"EXPLORE (paper)", core.ExploreContext(ctx, s, opts)},
		{"exhaustive", core.ExhaustiveContext(ctx, s, opts)},
		{"random (1000)", core.RandomSearchContext(ctx, s, opts, 1000, 1)},
		{"evolutionary", core.EvolutionaryContext(ctx, s, opts, core.EAConfig{Seed: 1})},
	}
	fmt.Printf("%-16s | %6s | %9s | %8s | %9s\n", "explorer", "front", "attempted", "bindings", "nodes")
	fmt.Println(strings.Repeat("-", 62))
	for _, r := range runs {
		fmt.Printf("%-16s | %6d | %9d | %8d | %9d\n", r.name, len(r.res.Front),
			r.res.Stats.Attempted, r.res.Stats.BindingRuns, r.res.Stats.BindingNodes)
	}
	return 0
}

// verifyFront re-derives every Pareto implementation and checks each of
// its behaviours with the independent validators: binding feasibility
// rules, a constructed static schedule, and the hierarchical activation
// rules over a round-robin schedule of all behaviours. It also reports
// the latency head-room an optimizing re-binding recovers.
func verifyFront(ctx context.Context, s *spec.Spec, opts core.Options) int {
	opts.AllBehaviours = true
	r := core.ExploreContext(ctx, s, opts)
	failures := 0
	for _, im := range r.Front {
		var phases []activation.Phase
		saved, optimal := 0.0, 0.0
		for i, beh := range im.Behaviours {
			fp, err := s.Problem.Flatten(beh.ECS.Selection)
			if err != nil {
				fmt.Println("FAIL flatten:", err)
				failures++
				continue
			}
			av, err := s.ArchViewFor(im.Allocation, beh.ArchSelection)
			if err != nil {
				fmt.Println("FAIL arch view:", err)
				failures++
				continue
			}
			if err := bind.Check(s, fp, av, beh.Binding, bind.Options{Timing: bind.TimingPaper}); err != nil {
				fmt.Println("FAIL binding rules:", err)
				failures++
			}
			sch, err := listsched.Build(s, fp, beh.Binding)
			if err != nil {
				fmt.Println("FAIL schedule:", err)
				failures++
			} else if err := listsched.Validate(s, fp, beh.Binding, sch); err != nil {
				fmt.Println("FAIL schedule validation:", err)
				failures++
			}
			if best, ok := bind.FindMinLatency(s, fp, av, bind.Options{Timing: bind.TimingPaper}); ok {
				saved += bind.TotalLatency(s, beh.Binding) - bind.TotalLatency(s, best.Binding)
				optimal += bind.TotalLatency(s, best.Binding)
			}
			phases = append(phases, activation.Phase{
				Start:         float64(i) * 10000,
				Selection:     beh.ECS.Selection,
				ArchSelection: beh.ArchSelection,
				Binding:       beh.Binding,
			})
		}
		sched := &activation.Schedule{Phases: phases}
		if err := activation.CheckSchedule(s, im.Allocation, sched, bind.Options{Timing: bind.TimingPaper}); err != nil {
			fmt.Println("FAIL activation rules:", err)
			failures++
		}
		fmt.Printf("$%4.0f f=%-2g: %d behaviours verified; re-binding saves %4.0f ns total latency (optimum %4.0f)\n",
			im.Cost, im.Flexibility, len(im.Behaviours), saved, optimal)
	}
	if failures > 0 {
		fmt.Printf("%d verification failures\n", failures)
		return 1
	}
	fmt.Println("all implementations verified end to end")
	return 0
}
