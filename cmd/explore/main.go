// Command explore runs flexibility/cost design-space exploration on an
// arbitrary specification graph given as JSON (see internal/spec for
// the format), or on one of the built-in paper models.
//
// Usage:
//
//	explore -spec system.json            # EXPLORE, print the Pareto front
//	explore -model settop -stats         # built-in model with counters
//	explore -spec system.json -algo ea   # evolutionary baseline
//	explore -spec system.json -tsv       # trade-off curve as TSV
//
// Long scans are interruptible and crash-safe: -timeout bounds the wall
// clock, Ctrl-C stops the scan cleanly (both print the best-so-far
// front, which is exactly the Pareto set of the explored cost-ordered
// prefix), and -checkpoint periodically persists an atomic snapshot
// that -resume continues from (see docs/checkpoint-format.md):
//
//	explore -model settop -algo exhaustive -checkpoint ck.json -timeout 500ms
//	explore -model settop -algo exhaustive -checkpoint ck.json -resume
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"time"

	"repro/internal/alloc"
	"repro/internal/bind"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/hgraph"
	"repro/internal/lint"
	"repro/internal/models"
	"repro/internal/profiling"
	"repro/internal/spec"
)

// cliFlags carries the parsed command line for validation; explicit
// indicates which flags the user actually set (flag.Visit), so
// incompatible-combination checks do not misfire on defaults.
type cliFlags struct {
	algo            string
	model           string
	objectives      string
	upgradeFrom     string
	asJSON          bool
	tsv             bool
	stats           bool
	workers         int
	iters           int
	checkpointEvery int
	timeout         time.Duration
	checkpoint      string
	resume          bool
	timing          string
	prof            profiling.Flags
	explicit        map[string]bool
}

// problems returns every reason the flag combination is rejected; a
// non-empty result exits with status 2 before any exploration starts.
func (f *cliFlags) problems() []string {
	var out []string
	if f.workers < 0 {
		out = append(out, "-workers must be >= 0 (0 selects GOMAXPROCS)")
	}
	if f.iters <= 0 {
		out = append(out, "-iters must be > 0")
	}
	if f.explicit["iters"] && f.algo != "random" {
		out = append(out, "-iters only applies to -algo random")
	}
	if f.explicit["seed"] && f.algo != "random" && f.algo != "ea" && f.model != "synthetic" {
		out = append(out, "-seed only applies to -algo random, -algo ea, or -model synthetic")
	}
	if f.explicit["workers"] && f.workers != 1 && f.algo != "explore" {
		out = append(out, "-workers only applies to -algo explore")
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
	if f.resume && f.checkpoint == "" {
		out = append(out, "-resume requires -checkpoint (the snapshot to continue from)")
	}
	if f.checkpoint != "" {
		if f.algo != "explore" && f.algo != "exhaustive" {
			out = append(out, "-checkpoint requires a deterministic cost-ordered scan (-algo explore or exhaustive)")
		}
		if f.objectives != "" || f.upgradeFrom != "" {
			out = append(out, "-checkpoint is not supported with -objectives or -upgrade-from")
		}
	}
	// Each of these runs its own EXPLORE variant and prints its own table.
	variant := f.objectives != "" || f.upgradeFrom != ""
	if f.objectives != "" && f.upgradeFrom != "" {
		out = append(out, "-objectives and -upgrade-from are mutually exclusive")
	}
	if variant && f.algo != "explore" {
		out = append(out, "-objectives and -upgrade-from only apply to -algo explore")
	}
	if variant && (f.asJSON || f.tsv || f.stats) {
		out = append(out, "-json, -tsv and -stats do not apply to -objectives or -upgrade-from")
	}
	if variant && f.explicit["workers"] && f.workers != 1 {
		out = append(out, "-workers does not apply to -objectives or -upgrade-from (they run one worker)")
	}
	// Only the EXPLORE scan and Upgrade's bound fold stop at the maximum.
	if f.explicit["stop-at-max"] && (f.algo != "explore" || f.objectives != "") {
		out = append(out, "-stop-at-max only applies to -algo explore without -objectives")
	}
	if _, err := bind.ParseTiming(f.timing); err != nil {
		out = append(out, "-timing: "+err.Error())
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
	specPath := flag.String("spec", "", "path to a specification graph JSON file (- for stdin)")
	model := flag.String("model", "", "built-in model: settop | decoder | sdr | synthetic")
	algo := flag.String("algo", "explore", "explorer: explore | exhaustive | random | ea")
	timing := flag.String("timing", "paper", "timing policy: paper | none | ll | rta | edf | hyperbolic")
	weighted := flag.Bool("weighted", false, "weighted flexibility metric")
	stats := flag.Bool("stats", false, "print exploration statistics")
	tsv := flag.Bool("tsv", false, "emit the front as TSV instead of a table")
	asJSON := flag.Bool("json", false, "emit the full result (front, behaviours, stats) as JSON")
	iters := flag.Int("iters", 1000, "iterations for -algo random")
	seed := flag.Int64("seed", 1, "seed for random/ea explorers and synthetic models")
	stopMax := flag.Bool("stop-at-max", false, "report a run that reaches maximum flexibility as max-flex at its stop cursor (default: completed at the stream's length)")
	objectives := flag.String("objectives", "", "comma-separated extra objectives beyond cost+1/flexibility: latency, or any resource attribute (e.g. power)")
	upgradeFrom := flag.String("upgrade-from", "", "comma-separated deployed units; explore cost-ordered upgrades (supersets only)")
	workers := flag.Int("workers", 1, "parallel exploration workers (0 = GOMAXPROCS); front is identical to sequential")
	lintMode := flag.String("lint", "on", "preflight static analysis: on | off (see docs/lint-codes.md)")
	timeout := flag.Duration("timeout", 0, "stop the scan after this duration and print the best-so-far front (0 = no limit)")
	ckPath := flag.String("checkpoint", "", "periodically write an atomic resume snapshot to this file")
	ckEvery := flag.Int("checkpoint-every", 64, "candidates between periodic checkpoints")
	resume := flag.Bool("resume", false, "continue the scan from the -checkpoint snapshot")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	tracePath := flag.String("trace", "", "write a runtime execution trace to this file")
	flag.Parse()

	fl := &cliFlags{
		algo: *algo, model: *model, objectives: *objectives, upgradeFrom: *upgradeFrom,
		asJSON: *asJSON, tsv: *tsv, stats: *stats,
		workers: *workers, iters: *iters, checkpointEvery: *ckEvery,
		timeout: *timeout, checkpoint: *ckPath, resume: *resume, timing: *timing,
		prof:     profiling.Flags{CPUProfile: *cpuProfile, MemProfile: *memProfile, Trace: *tracePath},
		explicit: map[string]bool{},
	}
	flag.Visit(func(f *flag.Flag) { fl.explicit[f.Name] = true })
	if probs := fl.problems(); len(probs) > 0 {
		for _, p := range probs {
			fmt.Fprintln(os.Stderr, "explore:", p)
		}
		return 2
	}

	stopProf, err := fl.prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "explore:", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "explore:", err)
		}
	}()

	s, err := loadSpec(*specPath, *model, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "explore:", err)
		return 1
	}
	if *lintMode != "off" {
		if err := lint.Preflight(s, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "explore:", err, "(rerun with -lint=off to explore anyway)")
			return 1
		}
	}

	policy, _ := bind.ParseTiming(*timing) // validated by problems
	opts := core.Options{Timing: policy, Weighted: *weighted, StopAtMaxFlex: *stopMax}

	// A SIGINT cancels the scan instead of killing the process: the
	// explorers return their prefix-exact partial front, a final
	// checkpoint is flushed, and the front is printed before exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// The request and the exhaustive overrides are settled before the
	// checkpoint wiring, so the options digest describes the scan run.
	req := core.Request{Workers: *workers, Iterations: *iters, Seed: *seed}
	if req.Workers == 0 {
		req.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case *objectives != "":
		req.Kind, req.Objectives = core.KindMulti, parseObjectives(*objectives, &opts)
	case *upgradeFrom != "":
		base, err := upgradeBase(s, *upgradeFrom)
		if err != nil {
			fmt.Fprintln(os.Stderr, "explore:", err)
			return 2
		}
		req.Kind, req.Base = core.KindUpgrade, base
	case *algo == "explore":
	case *algo == "exhaustive":
		opts = opts.Exhaustive()
	case *algo == "random":
		req.Kind = core.KindRandom
	case *algo == "ea":
		req.Kind = core.KindEvolutionary
	default:
		fmt.Fprintf(os.Stderr, "explore: unknown algorithm %q\n", *algo)
		return 2
	}

	var writer *checkpoint.Writer
	var stamp checkpoint.Stamp
	if *ckPath != "" {
		var err error
		if stamp, err = checkpoint.NewStamp(s, opts); err != nil {
			fmt.Fprintln(os.Stderr, "explore:", err)
			return 1
		}
		writer = &checkpoint.Writer{Path: *ckPath}
		opts.ProgressEvery = *ckEvery
		opts.Progress = func(p core.Progress) {
			if err := writer.Save(stamp.Capture(p)); err != nil {
				fmt.Fprintln(os.Stderr, "explore:", err)
			}
		}
	}
	if *resume {
		snap, err := checkpoint.Load(*ckPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "explore:", err)
			return 1
		}
		res, err := snap.Resume(s, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "explore:", err)
			return 1
		}
		opts.Resume = res
		fmt.Fprintf(os.Stderr, "explore: resuming %q at candidate %d (%d front entries)\n",
			snap.SpecName, snap.Cursor, len(snap.Front))
	}

	r := core.Run(ctx, s, opts, req)
	switch req.Kind {
	case core.KindMulti:
		printMulti(r)
		return 0
	case core.KindUpgrade:
		fmt.Printf("upgrades of %v: %d Pareto-optimal extensions\n\n", req.Base, len(r.Front))
		fmt.Print(r.FrontTable(s.Problem.Root.ID))
		return 0
	}

	if writer != nil {
		// Final flush so the snapshot covers the whole explored prefix,
		// interrupted or not.
		if err := writer.Save(stamp.FromResult(r)); err != nil {
			fmt.Fprintln(os.Stderr, "explore:", err)
		}
	}
	if r.Interrupted {
		fmt.Fprintf(os.Stderr, "explore: interrupted (%s) at candidate %d; the front below is the Pareto set of the explored prefix\n",
			r.Reason, r.Cursor)
		if writer != nil {
			fmt.Fprintf(os.Stderr, "explore: continue with: explore %s -resume\n",
				strings.Join(resumeArgs(), " "))
		}
	}

	if *asJSON {
		data, err := r.MarshalJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "explore:", err)
			return 1
		}
		// The result encodes compact; -json prints it indented.
		var out bytes.Buffer
		if err := json.Indent(&out, data, "", "  "); err != nil {
			fmt.Fprintln(os.Stderr, "explore:", err)
			return 1
		}
		fmt.Println(out.String())
		return 0
	}
	if *tsv {
		var pts []dot.TradeoffPoint
		for _, im := range r.Front {
			pts = append(pts, dot.TradeoffPoint{
				Cost: im.Cost, Flexibility: im.Flexibility, Label: im.Allocation.String(),
			})
		}
		fmt.Print(dot.TradeoffTSV(pts))
	} else {
		fmt.Printf("specification %q: %d Pareto-optimal implementations (max flexibility %g)\n\n",
			s.Name, len(r.Front), r.MaxFlexibility)
		fmt.Print(r.FrontTable(s.Problem.Root.ID))
	}
	if *stats {
		st := r.Stats
		fmt.Println()
		fmt.Println(s.Summary())
		fmt.Printf("design space         : %.3g design points\n", st.DesignSpace)
		fmt.Printf("allocation space     : %.3g subsets, %d scanned\n", st.AllocSpace, st.Scanned)
		fmt.Printf("possible allocations : %d\n", st.PossibleAllocations)
		fmt.Printf("implementations      : %d attempted, %d feasible\n", st.Attempted, st.Feasible)
		fmt.Printf("binding solver       : %d runs, %d nodes, %d behaviours tested\n",
			st.BindingRuns, st.BindingNodes, st.ECSTested)
		if c := st.Cache; c != (core.CacheStats{}) {
			fmt.Printf("flatten cache        : problem %d hits / %d misses, arch %d hits / %d misses\n",
				c.FlattenHits, c.FlattenMisses, c.ArchFlattenHits, c.ArchFlattenMisses)
			fmt.Printf("supportable sets     : %d reused\n", c.SupportableReused)
		}
		if p := st.Pipeline; p.Workers > 0 {
			fmt.Printf("parallel pipeline    : %d workers, queue %d (high water %d), %d commit stalls, %s busy\n",
				p.Workers, p.QueueDepth, p.QueueHighWater, p.CommitStalls,
				time.Duration(p.BusyNanos).Round(time.Millisecond))
			fmt.Printf("range jobs           : %d committed (batch size %d), %d bound publishes\n",
				p.BatchesCommitted, p.BatchSize, p.BoundPublishes)
		}
		fmt.Printf("termination          : %s (cursor %d)\n", r.Reason, r.Cursor)
		if len(st.Diags) > 0 {
			fmt.Printf("skipped candidates   : %d (injected faults or recovered panics)\n", len(st.Diags))
		}
	}
	return 0
}

// resumeArgs reconstructs the flags (minus -resume/-timeout) the user
// would pass to continue an interrupted scan.
func resumeArgs() []string {
	var out []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "resume" || f.Name == "timeout" {
			return
		}
		out = append(out, fmt.Sprintf("-%s=%s", f.Name, f.Value))
	})
	return out
}

func loadSpec(path, model string, seed int64) (*spec.Spec, error) {
	switch {
	case path == "" && model == "":
		return nil, fmt.Errorf("one of -spec or -model is required")
	case path != "" && model != "":
		return nil, fmt.Errorf("-spec and -model are mutually exclusive")
	case path == "-":
		return spec.Read(os.Stdin)
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return spec.Read(f)
	}
	return models.ByName(model, seed)
}

// upgradeBase parses -upgrade-from's comma-separated unit IDs and
// refuses one that is not an allocatable unit of s: it would leave no
// upgrade to explore.
func upgradeBase(s *spec.Spec, ids string) (spec.Allocation, error) {
	units := map[hgraph.ID]bool{}
	for _, u := range alloc.Units(s) {
		units[u.ID] = true
	}
	base := spec.Allocation{}
	for _, id := range strings.Split(ids, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		if !units[hgraph.ID(id)] {
			return nil, fmt.Errorf("-upgrade-from: %q is not an allocatable unit of the specification", id)
		}
		base[hgraph.ID(id)] = true
	}
	return base, nil
}

// parseObjectives returns cost, 1/flexibility and the comma-separated
// extra objectives in names. The latency objective reads every
// behaviour of an implementation, so it sets opts.AllBehaviours.
func parseObjectives(names string, opts *core.Options) []core.Objective {
	objs := []core.Objective{core.CostObjective(), core.InvFlexibilityObjective()}
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		switch n {
		case "":
		case "latency":
			opts.AllBehaviours = true
			objs = append(objs, core.MeanLatencyObjective())
		default:
			objs = append(objs, core.ResourceSumObjective(n))
		}
	}
	return objs
}

// printMulti prints a multi-objective front: one row of objective
// values per implementation.
func printMulti(r *core.Result) {
	if r.Interrupted {
		fmt.Fprintf(os.Stderr, "explore: interrupted (%s) at candidate %d; partial front follows\n", r.Reason, r.Cursor)
	}
	for _, name := range r.ObjectiveNames {
		fmt.Printf("%-14s ", name)
	}
	fmt.Println("allocation")
	for i, im := range r.Front {
		for _, v := range r.Objectives[i] {
			fmt.Printf("%-14.4g ", v)
		}
		fmt.Println(im.Allocation)
	}
}
