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
//	casestudy -verify          # re-verify every front implementation
//	casestudy -family          # product-family analysis of the front
//	casestudy -timing=rta      # ablation: exact response-time analysis
//
// The report runs in milliseconds, so it has no runtime flags. For a
// deadline, checkpoints and resume, parallel workers, the cache
// ablation or profiles, run the same specification and options through
// `explore -model settop`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/activation"
	"repro/internal/bind"
	"repro/internal/core"
	"repro/internal/dot"
	"repro/internal/hgraph"
	"repro/internal/lint"
	"repro/internal/listsched"
	"repro/internal/models"
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
		return string(id)
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

// problems returns every reason the command line is rejected (exit
// status 2); modes are the report switches, at most one of them set.
func problems(timing string, modes ...bool) []string {
	var out []string
	set := 0
	for _, on := range modes {
		if on {
			set++
		}
	}
	if set > 1 {
		out = append(out, "-table1, -tradeoff, -compare, -verify and -family are mutually exclusive")
	}
	if _, err := bind.ParseTiming(timing); err != nil {
		out = append(out, "-timing: "+err.Error())
	}
	return out
}

func main() {
	table1 := flag.Bool("table1", false, "print Table 1 (possible mappings and latencies)")
	tradeoff := flag.Bool("tradeoff", false, "print the Fig. 4 flexibility/cost trade-off as TSV")
	compare := flag.Bool("compare", false, "compare EXPLORE against exhaustive, random and EA baselines")
	verify := flag.Bool("verify", false, "re-verify every front implementation end to end (binding rules, schedules, activation rules)")
	family := flag.Bool("family", false, "product-family analysis of the front (entry costs, commonality, marginal costs)")
	timing := flag.String("timing", "paper", "timing policy: paper | none | ll | rta | edf | hyperbolic")
	weighted := flag.Bool("weighted", false, "use the weighted flexibility metric (footnote 2)")
	lintMode := flag.String("lint", "on", "preflight static analysis: on | off (see docs/lint-codes.md)")
	flag.Parse()

	if probs := problems(*timing, *table1, *tradeoff, *compare, *verify, *family); len(probs) > 0 {
		for _, p := range probs {
			fmt.Fprintln(os.Stderr, "casestudy:", p)
		}
		os.Exit(2)
	}
	s := models.SetTopBox()
	if *lintMode != "off" {
		if err := lint.Preflight(s, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "casestudy:", err, "(rerun with -lint=off to explore anyway)")
			os.Exit(1)
		}
	}
	policy, _ := bind.ParseTiming(*timing) // validated by problems
	opts := core.Options{Timing: policy, Weighted: *weighted}

	switch {
	case *table1:
		printTable1()
	case *tradeoff:
		r := core.Explore(s, opts)
		var pts []dot.TradeoffPoint
		for _, im := range r.Front {
			pts = append(pts, dot.TradeoffPoint{
				Cost: im.Cost, Flexibility: im.Flexibility, Label: allocString(im),
			})
		}
		fmt.Print(dot.TradeoffTSV(pts))
	case *compare:
		compareExplorers(s, opts)
	case *verify:
		os.Exit(verifyFront(os.Stdout, s, opts))
	case *family:
		r := core.Explore(s, opts)
		fmt.Print(core.AnalyzeFamily(s, r.Front))
	default:
		printParetoTable(os.Stdout, s, opts)
	}
}

// printParetoTable prints the paper's Section 5 Pareto table and the
// search-space reduction statistics of the EXPLORE run behind it.
func printParetoTable(w io.Writer, s *spec.Spec, opts core.Options) {
	r := core.Explore(s, opts)
	fmt.Fprintln(w, "Set-Top box case study (Section 5) — Pareto-optimal set:")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-26s | %-40s | %6s | %2s\n", "Resources", "Clusters", "c", "f")
	fmt.Fprintln(w, strings.Repeat("-", 84))
	for _, im := range r.Front {
		fmt.Fprintf(w, "%-26s | %-40s | $%5.0f | %2.0f\n",
			allocString(im), clusterString(im), im.Cost, im.Flexibility)
	}
	fmt.Fprintln(w)
	st := r.Stats
	fmt.Fprintf(w, "design space        : 2^25 = %.0f design points\n", st.DesignSpace)
	fmt.Fprintf(w, "allocation subsets  : 2^14 = %.0f (%d BDD nodes visited in cost order)\n", st.AllocSpace, st.Scanned)
	if st.Estimated < st.PossibleAllocations {
		fmt.Fprintf(w, "possible allocations: %d (flexibility estimated for %d; the bound settles the rest)\n", st.PossibleAllocations, st.Estimated)
	} else {
		fmt.Fprintf(w, "possible allocations: %d (flexibility estimated for each)\n", st.PossibleAllocations)
	}
	fmt.Fprintf(w, "implementations     : %d attempted, %d feasible\n", st.Attempted, st.Feasible)
	fmt.Fprintf(w, "binding solver      : %d runs over %d behaviours (%d search nodes)\n",
		st.BindingRuns, st.ECSTested, st.BindingNodes)
	if c := st.Cache; c != (core.CacheStats{}) {
		fmt.Fprintf(w, "evaluation caches   : %d bindings reused / %d solved, flatten %d/%d hits (problem/arch)\n",
			c.BindHits(), c.BindMisses, c.FlattenHits, c.ArchFlattenHits)
	}
	fmt.Fprintf(w, "maximum flexibility : %g\n", r.MaxFlexibility)
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

func compareExplorers(s *spec.Spec, opts core.Options) {
	runs := []struct {
		name string
		res  *core.Result
	}{
		{"EXPLORE (paper)", core.Explore(s, opts)},
		{"exhaustive", core.Exhaustive(s, opts)},
		{"random (1000)", core.RandomSearch(s, opts, 1000, 1)},
		{"evolutionary", core.Evolutionary(s, opts, 1)},
	}
	fmt.Printf("%-16s | %6s | %9s | %8s | %9s\n", "explorer", "front", "attempted", "bindings", "nodes")
	fmt.Println(strings.Repeat("-", 62))
	for _, r := range runs {
		fmt.Printf("%-16s | %6d | %9d | %8d | %9d\n", r.name, len(r.res.Front),
			r.res.Stats.Attempted, r.res.Stats.BindingRuns, r.res.Stats.BindingNodes)
	}
}

// verifyFront re-derives every Pareto implementation and checks each of
// its behaviours with the independent validators: binding feasibility
// rules, a constructed static schedule, and the hierarchical activation
// rules over a round-robin schedule of all behaviours. It also reports
// the latency head-room an optimizing re-binding recovers. Every check
// applies the run's timing policy. The report goes to w.
func verifyFront(w io.Writer, s *spec.Spec, opts core.Options) int {
	opts.AllBehaviours = true
	bopts := bind.Options{Timing: opts.Timing}
	r := core.Explore(s, opts)
	failures := 0
	for _, im := range r.Front {
		var phases []activation.Phase
		saved, optimal := 0.0, 0.0
		for i, beh := range im.Behaviours {
			fp, err := s.Problem.Flatten(beh.ECS.Selection)
			if err != nil {
				fmt.Fprintln(w, "FAIL flatten:", err)
				failures++
				continue
			}
			av, err := s.ArchViewFor(im.Allocation, beh.ArchSelection)
			if err != nil {
				fmt.Fprintln(w, "FAIL arch view:", err)
				failures++
				continue
			}
			if err := bind.Check(s, fp, av, beh.Binding, bopts); err != nil {
				fmt.Fprintln(w, "FAIL binding rules:", err)
				failures++
			}
			sch, err := listsched.Build(s, fp, beh.Binding)
			if err != nil {
				fmt.Fprintln(w, "FAIL schedule:", err)
				failures++
			} else if err := listsched.Validate(s, fp, beh.Binding, sch); err != nil {
				fmt.Fprintln(w, "FAIL schedule validation:", err)
				failures++
			}
			if best, ok := bind.FindMinLatency(s, fp, av, bopts); ok {
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
		if err := activation.CheckSchedule(s, im.Allocation, sched, bopts); err != nil {
			fmt.Fprintln(w, "FAIL activation rules:", err)
			failures++
		}
		fmt.Fprintf(w, "$%4.0f f=%-2g: %d behaviours verified; re-binding saves %4.0f ns total latency (optimum %4.0f)\n",
			im.Cost, im.Flexibility, len(im.Behaviours), saved, optimal)
	}
	if failures > 0 {
		fmt.Fprintf(w, "%d verification failures\n", failures)
		return 1
	}
	fmt.Fprintln(w, "all implementations verified end to end")
	return 0
}
