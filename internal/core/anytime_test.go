package core

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/faultinject"
	"repro/internal/models"
	"repro/internal/pareto"
	"repro/internal/spec"
)

// prefixFront implements the first k possible candidates of the
// cost-ordered enumeration unconditionally and folds them into a Pareto
// front — the ground truth the anytime invariant is checked against:
// an exploration interrupted with Cursor == k must return exactly this
// front.
func prefixFront(s *spec.Spec, opts Options, k int) []*Implementation {
	enumerate := func(fn func(alloc.Candidate) bool) {
		alloc.Enumerate(s, alloc.Options{
			IncludeUselessComm: opts.IncludeUselessComm,
			MaxScan:            opts.MaxScan,
		}, fn)
	}
	return prefixArchive(s, opts, k, enumerate, func(im *Implementation) []float64 {
		return pareto.CostFlexObjectives(im.Cost, im.Flexibility)
	})
}

// prefixArchive implements the first k candidates of stream
// unconditionally and archives every implementation under the
// objective vector vec gives it (nil: not admitted).
func prefixArchive(s *spec.Spec, opts Options, k int, stream func(func(alloc.Candidate) bool), vec func(*Implementation) []float64) []*Implementation {
	front := &pareto.Front{}
	idx := 0
	stream(func(c alloc.Candidate) bool {
		if idx >= k {
			return false
		}
		idx++
		if im := referenceImplement(s, c.Allocation, opts, nil); im != nil {
			if v := vec(im); v != nil {
				front.Add(&pareto.Entry{Objectives: v, Value: im})
			}
		}
		return true
	})
	return frontToImplementations(front)
}

// frontsEqual reports whether two fronts hold the same implementations,
// entry by entry: allocation, cost and flexibility, clusters, and each
// behaviour's ECS, architecture selection and binding. A binding is a
// function of the allocation and the binding options (timing,
// MaxBindNodes), so runs under the same options must agree on it
// whatever their worker count, batch sizes or resume point.
func frontsEqual(a, b []*Implementation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if sameImplementation(a[i], b[i], true) != "" {
			return false
		}
	}
	return true
}

// settleCursor is the cursor at which a run under opts settles: just
// past the candidate whose implementation brings the front to
// MaxFlexibility, where a StopAtMaxFlex run stops. The bound prunes
// every later candidate, so the run ends there and no cancellation or
// failpoint aimed at or past it fires. Without the bound, or when the
// front never reaches the maximum, it is the stream's length.
func settleCursor(s *spec.Spec, opts Options) int {
	if !opts.DisableFlexBound {
		opts.StopAtMaxFlex = true
	}
	return Explore(s, opts).Cursor
}

// cancelAt runs EXPLORE through Run with a fault-injected cancellation at
// candidate index k — the deterministic stand-in for SIGINT/deadline.
func cancelAt(s *spec.Spec, opts Options, k int) *Result {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts.Fault = faultinject.New().CancelAt(SiteEstimate, k).Bind(cancel)
	return Run(ctx, s, opts, Request{})
}

func TestExploreCancelledImmediately(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := Run(ctx, models.Decoder(), Options{}, Request{})
	if !r.Interrupted || r.Reason != ReasonCancelled {
		t.Fatalf("interrupted=%v reason=%q, want cancelled", r.Interrupted, r.Reason)
	}
	if r.Cursor != 0 || len(r.Front) != 0 {
		t.Fatalf("cursor=%d front=%d, want empty prefix", r.Cursor, len(r.Front))
	}
}

func TestExploreDeadlineReason(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	r := Run(ctx, models.Decoder(), Options{}, Request{})
	if !r.Interrupted || r.Reason != ReasonDeadline {
		t.Fatalf("interrupted=%v reason=%q, want deadline", r.Interrupted, r.Reason)
	}
}

// TestAnytimePrefixInvariant: a scan cancelled at candidate k returns
// Cursor == k and exactly the Pareto front of the first k candidates —
// the paper's cost-ordering argument, now load-bearing for anytime use.
// The last k is the candidate just before the run settles.
func TestAnytimePrefixInvariant(t *testing.T) {
	s := models.SetTopBox()
	for _, k := range []int{1, 7, 50, settleCursor(s, Options{}) - 1} {
		r := cancelAt(s, Options{}, k)
		if !r.Interrupted || r.Reason != ReasonCancelled {
			t.Fatalf("k=%d: interrupted=%v reason=%q", k, r.Interrupted, r.Reason)
		}
		if r.Cursor != k {
			t.Fatalf("k=%d: cursor=%d", k, r.Cursor)
		}
		want := prefixFront(s, Options{}, k)
		if !frontsEqual(r.Front, want) {
			t.Errorf("k=%d: partial front (%d entries) is not the Pareto set of the prefix (%d entries)",
				k, len(r.Front), len(want))
		}
	}
}

// TestProgressPrefixInvariant: every periodic Progress report carries a
// front that is exactly the Pareto set of the candidates before its
// cursor — what makes checkpoints taken from Progress trustworthy.
func TestProgressPrefixInvariant(t *testing.T) {
	s := models.Decoder()
	var reports []Progress
	Explore(s, Options{ProgressEvery: 5, Progress: func(p Progress) {
		reports = append(reports, p)
	}})
	if len(reports) == 0 {
		t.Fatal("no progress reports")
	}
	for _, p := range reports {
		want := prefixFront(s, Options{}, p.Cursor)
		if !frontsEqual(p.Front, want) {
			t.Errorf("cursor=%d: progress front deviates from prefix Pareto set", p.Cursor)
		}
	}
}

// TestResumeEquivalence (acceptance): on each model, an exploration
// interrupted mid-scan and resumed from its own partial result matches
// the uninterrupted run bit-for-bit — fronts and effort counters — for
// both the sequential and the parallel explorer.
func TestResumeEquivalence(t *testing.T) {
	synth := models.Synthetic(models.SyntheticParams{
		Seed: 1, Apps: 2, Depth: 1, Branch: 2, Vertices: 2,
		Processors: 2, ASICs: 1, Designs: 1, Buses: 3,
		TimedFraction: 0.3, AccelOnlyFraction: 0.3,
	})
	for _, tc := range []struct {
		name string
		s    *spec.Spec
	}{
		{"settop", models.SetTopBox()},
		{"decoder", models.Decoder()},
		{"synthetic", synth},
	} {
		t.Run(tc.name, func(t *testing.T) {
			full := Explore(tc.s, Options{})
			k := settleCursor(tc.s, Options{}) / 2
			if k == 0 {
				k = 1
			}
			part := cancelAt(tc.s, Options{}, k)
			if !part.Interrupted || part.Cursor != k {
				t.Fatalf("interrupt failed: interrupted=%v cursor=%d", part.Interrupted, part.Cursor)
			}
			res := &Resume{Cursor: part.Cursor, Front: part.Front, Stats: part.Stats}

			resumed := Explore(tc.s, Options{Resume: res})
			if !frontsEqual(resumed.Front, full.Front) {
				t.Errorf("resumed sequential front differs from uninterrupted run")
			}
			if resumed.Interrupted || resumed.Reason != ReasonCompleted {
				t.Errorf("resumed run: interrupted=%v reason=%q", resumed.Interrupted, resumed.Reason)
			}
			// Semantic counters (scanned, estimated, attempted,
			// feasible, ...) and the solver effort, one solve per binding
			// decision, continue exactly across the resume; the cache
			// counters do not — the resumed run restarts with cold caches.
			if !reflect.DeepEqual(resumed.Stats.Semantic(), full.Stats.Semantic()) ||
				resumed.Stats.BindingRuns != full.Stats.BindingRuns || resumed.Stats.BindingNodes != full.Stats.BindingNodes {
				t.Errorf("resumed stats %+v\n  differ from uninterrupted %+v", resumed.Stats, full.Stats)
			}

			par := ExploreParallel(tc.s, Options{}, 4, 8)
			if !frontsEqual(par.Front, full.Front) {
				t.Errorf("parallel front differs from sequential")
			}
			parResumed := ExploreParallel(tc.s, Options{Resume: res}, 4, 8)
			if !frontsEqual(parResumed.Front, full.Front) {
				t.Errorf("parallel resumed front differs from uninterrupted run")
			}
		})
	}
}

// TestCrossModeResumeEquivalence (acceptance): a snapshot taken from a
// Progress emission mid-pipeline is a valid resume point for *either*
// explorer — the sequential resume and the pipelined resume both land
// on the uninterrupted run's front and semantic counters, and the
// mid-pipeline front itself is prefix-exact. This is what makes
// checkpoints interchangeable between -workers=1 and -workers=N runs.
func TestCrossModeResumeEquivalence(t *testing.T) {
	s := models.SetTopBox()
	full := Explore(s, Options{})

	var snap *Progress
	ExploreParallel(s, Options{ProgressEvery: 16, Progress: func(p Progress) {
		if snap == nil && p.Cursor >= 48 && p.Cursor < full.Cursor {
			cp := p
			cp.Front = append([]*Implementation(nil), p.Front...)
			snap = &cp
		}
	}}, 4, 8)
	if snap == nil {
		t.Fatal("no mid-scan progress emission from the pipeline")
	}
	if want := prefixFront(s, Options{}, snap.Cursor); !frontsEqual(snap.Front, want) {
		t.Fatalf("cursor=%d: mid-pipeline progress front is not the prefix Pareto set", snap.Cursor)
	}

	res := &Resume{Cursor: snap.Cursor, Front: snap.Front, Stats: snap.Stats}
	seqResumed := Explore(s, Options{Resume: res})
	parResumed := ExploreParallel(s, Options{Resume: res}, 4, 8)
	if !frontsEqual(seqResumed.Front, full.Front) {
		t.Errorf("sequential resume of a pipeline snapshot diverges from the full run")
	}
	if !frontsEqual(parResumed.Front, full.Front) {
		t.Errorf("pipelined resume of a pipeline snapshot diverges from the full run")
	}
	if seqResumed.Cursor != full.Cursor || parResumed.Cursor != full.Cursor {
		t.Errorf("resumed cursors %d/%d != full run's %d",
			seqResumed.Cursor, parResumed.Cursor, full.Cursor)
	}
	if !reflect.DeepEqual(seqResumed.Stats.Semantic(), full.Stats.Semantic()) {
		t.Errorf("sequential resume semantic stats diverge:\n%+v\n%+v",
			seqResumed.Stats.Semantic(), full.Stats.Semantic())
	}
	if !reflect.DeepEqual(parResumed.Stats.Semantic(), full.Stats.Semantic()) {
		t.Errorf("pipelined resume semantic stats diverge:\n%+v\n%+v",
			parResumed.Stats.Semantic(), full.Stats.Semantic())
	}
}

// TestPipelineFinalProgress: the scan tail past the last periodic
// emission still reports — the pipeline fires a closing Progress event
// at the final cursor (the old wave explorer silently dropped the final
// partial batch). With ProgressEvery larger than the scan, that final
// event is the only one, and it must carry the complete front.
func TestPipelineFinalProgress(t *testing.T) {
	s := models.Decoder()
	var last *Progress
	count := 0
	r := ExploreParallel(s, Options{ProgressEvery: 1 << 30, Progress: func(p Progress) {
		count++
		cp := p
		cp.Front = append([]*Implementation(nil), p.Front...)
		last = &cp
	}}, 2, 4)
	if count != 1 {
		t.Fatalf("got %d progress emissions, want exactly the final one", count)
	}
	if last.Cursor != r.Cursor {
		t.Errorf("final progress cursor %d != result cursor %d", last.Cursor, r.Cursor)
	}
	if !frontsEqual(last.Front, r.Front) {
		t.Errorf("final progress front differs from the result front")
	}
	if last.Stats.PossibleAllocations != r.Stats.PossibleAllocations {
		t.Errorf("final progress stats incomplete: possible %d != %d",
			last.Stats.PossibleAllocations, r.Stats.PossibleAllocations)
	}
}

// TestParallelCancelPrefixExact: cancelling the parallel explorer stops
// the fold at the first unevaluated candidate, so its partial front is
// the Pareto set of the prefix before Cursor.
func TestParallelCancelPrefixExact(t *testing.T) {
	s := models.SetTopBox()
	const k = 100
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{Fault: faultinject.New().CancelAt(SiteEstimate, k).Bind(cancel)}
	r := explore(ctx, s, opts, 4, 16)
	if !r.Interrupted || r.Reason != ReasonCancelled {
		t.Fatalf("interrupted=%v reason=%q", r.Interrupted, r.Reason)
	}
	// Workers race the cancellation, so the exact stop point may land
	// anywhere in the wave containing k — but wherever it lands, the
	// front must be the prefix Pareto set at that cursor.
	if r.Cursor <= 0 || r.Cursor > k+16 {
		t.Fatalf("cursor=%d out of the expected window", r.Cursor)
	}
	if want := prefixFront(s, Options{}, r.Cursor); !frontsEqual(r.Front, want) {
		t.Errorf("cursor=%d: parallel partial front is not the prefix Pareto set", r.Cursor)
	}
	res := &Resume{Cursor: r.Cursor, Front: r.Front, Stats: r.Stats}
	if resumed := ExploreParallel(s, Options{Resume: res}, 4, 16); !frontsEqual(resumed.Front, Explore(s, Options{}).Front) {
		t.Errorf("parallel interrupted+resumed front differs from uninterrupted run")
	}
}

// TestParallelPanicIsolation: a candidate whose evaluation panics is
// recovered in its worker, recorded as a structured diagnostic, and
// skipped; the rest of the scan — and the front — are unaffected when
// the poisoned candidate is not a front member.
func TestParallelPanicIsolation(t *testing.T) {
	s := models.SetTopBox()
	full := Explore(s, Options{})
	onFront := func(a spec.Allocation) bool {
		for _, im := range full.Front {
			if im.Allocation.Equal(a) {
				return true
			}
		}
		return false
	}
	// Pick a candidate that is not a Pareto-front member, so skipping it
	// must leave the front unchanged.
	victim := -1
	idx := 0
	alloc.Enumerate(s, alloc.Options{}, func(c alloc.Candidate) bool {
		if !onFront(c.Allocation) {
			victim = idx
			return false
		}
		idx++
		return true
	})
	if victim < 0 {
		t.Fatal("no non-front candidate found")
	}

	plan := faultinject.New().PanicAt(SiteEstimate, victim, "poisoned candidate")
	r := ExploreParallel(s, Options{Fault: plan}, 4, 16)
	if r.Interrupted || r.Reason != ReasonCompleted {
		t.Fatalf("run did not complete: interrupted=%v reason=%q", r.Interrupted, r.Reason)
	}
	if !frontsEqual(r.Front, full.Front) {
		t.Errorf("front changed after skipping a non-front candidate")
	}
	if len(r.Stats.Diags) != 1 {
		t.Fatalf("diags=%d, want 1", len(r.Stats.Diags))
	}
	d := r.Stats.Diags[0]
	if d.Kind != DiagPanic || d.Site != SiteEstimate || d.Cursor != victim {
		t.Errorf("diag %+v, want panic at %s[%d]", d, SiteEstimate, victim)
	}
	if !strings.Contains(d.Message, "poisoned candidate") || d.Stack == "" {
		t.Errorf("diag lacks message/stack: %+v", d)
	}
}

// TestParallelPanicEveryCandidate: even when every single evaluation
// panics the scan terminates normally with one diagnostic per candidate
// and an empty front.
func TestParallelPanicEveryCandidate(t *testing.T) {
	s := models.Decoder()
	plan := faultinject.New().PanicAt(SiteEstimate, -1, "all down")
	r := ExploreParallel(s, Options{Fault: plan}, 4, 8)
	if r.Interrupted {
		t.Fatal("interrupted")
	}
	if len(r.Front) != 0 {
		t.Fatalf("front has %d entries, want 0", len(r.Front))
	}
	if len(r.Stats.Diags) != r.Stats.PossibleAllocations {
		t.Errorf("diags=%d, possible=%d — every candidate should carry one",
			len(r.Stats.Diags), r.Stats.PossibleAllocations)
	}
}

// TestInjectedErrorSkipsCandidate: an injected (non-panic) estimation
// error is recorded and the candidate skipped, sequentially and in
// parallel.
func TestInjectedErrorSkipsCandidate(t *testing.T) {
	s := models.Decoder()
	for _, parallel := range []bool{false, true} {
		plan := faultinject.New().ErrorAt(SiteEstimate, 0, nil)
		opts := Options{Fault: plan}
		var r *Result
		if parallel {
			r = ExploreParallel(s, opts, 4, 8)
		} else {
			r = Explore(s, opts)
		}
		if len(r.Stats.Diags) != 1 || r.Stats.Diags[0].Kind != DiagError {
			t.Fatalf("parallel=%v: diags %+v, want one error diag", parallel, r.Stats.Diags)
		}
		if len(plan.Firings()) != 1 {
			t.Fatalf("parallel=%v: firings %v", parallel, plan.Firings())
		}
	}
}

// TestStopAtMaxFlexFinalFlush: the termination reason of a StopAtMaxFlex
// hit must survive the parallel explorer's *final* wave flush (whose
// boolean result is discarded), including with a batch so large the
// entire scan is that one final flush.
func TestStopAtMaxFlexFinalFlush(t *testing.T) {
	s := models.SetTopBox()
	seq := Explore(s, Options{StopAtMaxFlex: true})
	if seq.Reason != ReasonMaxFlex {
		t.Fatalf("sequential reason=%q, want max-flex", seq.Reason)
	}
	par := ExploreParallel(s, Options{StopAtMaxFlex: true}, 4, 100000)
	if par.Reason != ReasonMaxFlex {
		t.Errorf("parallel reason=%q, want max-flex (final flush dropped the stop signal)", par.Reason)
	}
	if !frontsEqual(seq.Front, par.Front) {
		t.Errorf("fronts differ under StopAtMaxFlex")
	}
}

func TestRandomSearchCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := Run(ctx, models.Decoder(), Options{}, Request{Kind: KindRandom, Iterations: 100, Seed: 1})
	if !r.Interrupted || r.Reason != ReasonCancelled || r.Cursor != 0 {
		t.Fatalf("interrupted=%v reason=%q cursor=%d", r.Interrupted, r.Reason, r.Cursor)
	}
}

func TestEvolutionaryCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := Run(ctx, models.Decoder(), Options{}, Request{Kind: KindEvolutionary, Seed: 1})
	if !r.Interrupted || r.Reason != ReasonCancelled {
		t.Fatalf("interrupted=%v reason=%q", r.Interrupted, r.Reason)
	}
}

func TestExploreMultiCancel(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	r := Run(ctx, models.Decoder(), Options{}, Request{Kind: KindMulti})
	if !r.Interrupted || r.Reason != ReasonDeadline || len(r.Front) != 0 {
		t.Fatalf("interrupted=%v reason=%q front=%d", r.Interrupted, r.Reason, len(r.Front))
	}
}

func TestUpgradeCancel(t *testing.T) {
	s := models.SetTopBox()
	full := Explore(s, Options{})
	if len(full.Front) == 0 {
		t.Fatal("no base")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := Run(ctx, s, Options{}, Request{Kind: KindUpgrade, Base: full.Front[0].Allocation})
	if !r.Interrupted || r.Reason != ReasonCancelled {
		t.Fatalf("interrupted=%v reason=%q", r.Interrupted, r.Reason)
	}
}

// TestExhaustiveDeadlineAnytime: the exhaustive baseline inherits the
// anytime semantics; its interrupted front must also be prefix-exact
// (with the exhaustive option overrides applied to the ground truth).
func TestExhaustiveDeadlineAnytime(t *testing.T) {
	s := models.SetTopBox()
	const k = 64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{Fault: faultinject.New().CancelAt(SiteEstimate, k).Bind(cancel)}
	r := Run(ctx, s, opts.Exhaustive(), Request{})
	if !r.Interrupted || r.Cursor != k {
		t.Fatalf("interrupted=%v cursor=%d", r.Interrupted, r.Cursor)
	}
	exOpts := Options{DisableFlexBound: true, IncludeUselessComm: true}
	if want := prefixFront(s, exOpts, k); !frontsEqual(r.Front, want) {
		t.Errorf("exhaustive partial front is not the prefix Pareto set")
	}
}

// TestScanBoundOnlyWhenCut: a MaxScan budget that the enumeration
// exactly exhausts leaves the run completed; one visit less cuts the
// stream and the run ends scan-bound, for every cost-ordered explorer.
// For Explore and Upgrade the walk ends where the run settles, so a
// budget below the settle point's visits cuts the run and a budget
// above them completes it, at the full stream's cursor. The visit
// counts come from the sequential run: a parallel run's Scanned is
// telemetry that depends on how far its producer ran ahead.
func TestScanBoundOnlyWhenCut(t *testing.T) {
	s := models.SetTopBox()
	base := spec.NewAllocation("uP2")
	runs := map[string]func(Options) (Reason, int, Stats){
		"explore": func(o Options) (Reason, int, Stats) {
			r := Explore(s, o)
			return r.Reason, r.Cursor, r.Stats
		},
		"parallel": func(o Options) (Reason, int, Stats) {
			r := ExploreParallel(s, o, 2, 0)
			return r.Reason, r.Cursor, r.Stats
		},
		"multi": func(o Options) (Reason, int, Stats) {
			r := Run(context.Background(), s, o, Request{Kind: KindMulti})
			return r.Reason, r.Cursor, r.Stats
		},
		"upgrade": func(o Options) (Reason, int, Stats) {
			r := Run(context.Background(), s, o, Request{Kind: KindUpgrade, Base: base})
			return r.Reason, r.Cursor, r.Stats
		},
	}
	sequential := map[string]string{"parallel": "explore"}
	for name, run := range runs {
		reason, cursor, full := run(Options{})
		if reason != ReasonCompleted {
			t.Fatalf("%s: unbounded run ended %q", name, reason)
		}
		visits := full.Scanned
		if seq, ok := sequential[name]; ok {
			_, _, st := runs[seq](Options{})
			visits = st.Scanned
		}
		for _, c := range []struct {
			budget int
			want   Reason
		}{{visits, ReasonCompleted}, {visits + 1, ReasonCompleted}, {visits - 1, ReasonScanBound}} {
			got, gotCursor, st := run(Options{MaxScan: c.budget})
			if got != c.want {
				t.Errorf("%s: MaxScan %d (visits needed %d): reason %q, want %q", name, c.budget, visits, got, c.want)
				continue
			}
			if got == ReasonCompleted && (gotCursor != cursor || st.PossibleAllocations != full.PossibleAllocations) {
				t.Errorf("%s: MaxScan %d: cursor %d possible %d, want %d, %d",
					name, c.budget, gotCursor, st.PossibleAllocations, cursor, full.PossibleAllocations)
			}
		}
	}
	// The default run settles, so its budgets above are below the
	// full walk's visits.
	_, _, all := runs["multi"](Options{})
	if _, _, st := runs["explore"](Options{}); st.Scanned >= all.Scanned {
		t.Fatalf("explore walked %d nodes, the full walk %d: the run did not settle", st.Scanned, all.Scanned)
	}
}

// anytimeRun is the anytime-relevant outcome of any cost-ordered
// explorer.
type anytimeRun struct {
	front       []*Implementation
	objectives  [][]float64
	interrupted bool
	reason      Reason
	cursor      int
	stats       Stats
}

func anytimeOf(r *Result) anytimeRun {
	return anytimeRun{front: r.Front, objectives: r.Objectives, interrupted: r.Interrupted, reason: r.Reason, cursor: r.Cursor, stats: r.Stats}
}

// TestAnytimeContractEveryExplorer: every cost-ordered explorer keeps
// the anytime contract. A cancellation at candidate k stops at Cursor
// k with exactly the prefix's front; resuming from that result matches
// the uninterrupted run in front, cursor, reason and semantic counters;
// an injected implementation error at candidate j leaves exactly one
// diagnostic, at j; and progress cursors strictly increase up to the
// final cursor.
func TestAnytimeContractEveryExplorer(t *testing.T) {
	s := models.SetTopBox()
	base := spec.NewAllocation("uP2")
	baseFlex := Implement(s, base, Options{}, nil).Flexibility
	tri := []Objective{CostObjective(), InvFlexibilityObjective(), MeanLatencyObjective()}
	costFlex := func(im *Implementation) []float64 {
		return pareto.CostFlexObjectives(im.Cost, im.Flexibility)
	}
	vectorOf := func(objs []Objective) func(*Implementation) []float64 {
		return func(im *Implementation) []float64 {
			v := make([]float64, len(objs))
			for i, o := range objs {
				v[i] = o.Eval(s, im)
			}
			return v
		}
	}
	symbolic := func(fn func(alloc.Candidate) bool) { alloc.EnumerateSymbolic(s, alloc.Options{}, fn) }
	extensions := func(fn func(alloc.Candidate) bool) { alloc.EnumerateExtensions(s, base, alloc.Options{}, 0, fn) }
	allBehaviours := Options{AllBehaviours: true}

	explorers := []struct {
		name string
		run  func(context.Context, Options) anytimeRun
		// prefix is the front of the first k candidates of the
		// explorer's stream, each implemented unconditionally.
		prefix func(k int) []*Implementation
		// pool marks a worker pool. Its workers race a cancellation, so
		// the cancelled candidate lies in the first range job (4
		// candidates), which one worker evaluates in order.
		pool bool
	}{
		{"explore", func(ctx context.Context, o Options) anytimeRun {
			return anytimeOf(Run(ctx, s, o, Request{}))
		}, func(k int) []*Implementation { return prefixFront(s, Options{}, k) }, false},
		{"parallel2", func(ctx context.Context, o Options) anytimeRun {
			return anytimeOf(explore(ctx, s, o, 2, 0))
		}, func(k int) []*Implementation { return prefixFront(s, Options{}, k) }, true},
		{"parallel4", func(ctx context.Context, o Options) anytimeRun {
			return anytimeOf(explore(ctx, s, o, 4, 0))
		}, func(k int) []*Implementation { return prefixFront(s, Options{}, k) }, true},
		{"exhaustive", func(ctx context.Context, o Options) anytimeRun {
			return anytimeOf(Run(ctx, s, o.Exhaustive(), Request{}))
		}, func(k int) []*Implementation {
			return prefixFront(s, Options{DisableFlexBound: true, IncludeUselessComm: true}, k)
		}, false},
		{"multi", func(ctx context.Context, o Options) anytimeRun {
			return anytimeOf(Run(ctx, s, o, Request{Kind: KindMulti}))
		}, func(k int) []*Implementation {
			return prefixArchive(s, Options{}, k, symbolic, costFlex)
		}, false},
		{"multi-tri", func(ctx context.Context, o Options) anytimeRun {
			o.AllBehaviours = true
			return anytimeOf(Run(ctx, s, o, Request{Kind: KindMulti, Objectives: tri}))
		}, func(k int) []*Implementation {
			return prefixArchive(s, allBehaviours, k, symbolic, vectorOf(tri))
		}, false},
		{"upgrade", func(ctx context.Context, o Options) anytimeRun {
			return anytimeOf(Run(ctx, s, o, Request{Kind: KindUpgrade, Base: base}))
		}, func(k int) []*Implementation {
			return prefixArchive(s, Options{}, k, extensions, func(im *Implementation) []float64 {
				if im.Flexibility <= baseFlex {
					return nil
				}
				return costFlex(im)
			})
		}, false},
	}
	for _, ex := range explorers {
		t.Run(ex.name, func(t *testing.T) {
			var cursors []int
			full := ex.run(context.Background(), Options{ProgressEvery: 5, Progress: func(p Progress) {
				cursors = append(cursors, p.Cursor)
			}})
			if len(cursors) == 0 || cursors[len(cursors)-1] != full.cursor {
				t.Errorf("%d progress reports do not end at the final cursor %d", len(cursors), full.cursor)
			}
			for i := 1; i < len(cursors); i++ {
				if cursors[i] <= cursors[i-1] {
					t.Fatalf("progress cursor %d follows %d", cursors[i], cursors[i-1])
				}
			}
			if full.interrupted || full.reason != ReasonCompleted || full.cursor < 8 {
				t.Fatalf("uninterrupted run: interrupted=%v reason=%q cursor=%d", full.interrupted, full.reason, full.cursor)
			}

			// A cancellation at or past the settle point never fires,
			// so k halves the StopAtMaxFlex run's cursor (the full
			// cursor for the explorers that do not stop there).
			k := ex.run(context.Background(), Options{StopAtMaxFlex: true}).cursor / 2
			if ex.pool {
				k = 3
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			part := ex.run(ctx, Options{Fault: faultinject.New().CancelAt(SiteEstimate, k).Bind(cancel)})
			if !part.interrupted || part.reason != ReasonCancelled || part.cursor != k {
				t.Fatalf("cancelled at %d: interrupted=%v reason=%q cursor=%d", k, part.interrupted, part.reason, part.cursor)
			}
			if want := ex.prefix(k); !frontsEqual(part.front, want) {
				t.Errorf("cancelled at %d: front %v is not the prefix's %v", k, part.front, want)
			}

			resumed := ex.run(context.Background(), Options{Resume: &Resume{Cursor: part.cursor, Front: part.front, Stats: part.stats}})
			if !frontsEqual(resumed.front, full.front) || !reflect.DeepEqual(resumed.objectives, full.objectives) {
				t.Errorf("resumed front %v differs from the uninterrupted %v", resumed.front, full.front)
			}
			if resumed.cursor != full.cursor || resumed.reason != full.reason {
				t.Errorf("resumed cursor %d reason %q, want %d %q", resumed.cursor, resumed.reason, full.cursor, full.reason)
			}
			if !reflect.DeepEqual(resumed.stats.Semantic(), full.stats.Semantic()) {
				t.Errorf("resumed semantic stats diverge:\n%+v\n%+v", resumed.stats.Semantic(), full.stats.Semantic())
			}

			// j: the first candidate the explorer implements.
			everyFails := ex.run(context.Background(), Options{Fault: faultinject.New().ErrorAt(SiteImplement, -1, nil)})
			if len(everyFails.stats.Diags) == 0 {
				t.Fatal("no candidate reached the implement failpoint")
			}
			j := everyFails.stats.Diags[0].Cursor
			faulted := ex.run(context.Background(), Options{Fault: faultinject.New().ErrorAt(SiteImplement, j, nil)})
			if d := faulted.stats.Diags; len(d) != 1 || d[0].Site != SiteImplement || d[0].Cursor != j || d[0].Kind != DiagError {
				t.Errorf("implement error at %d: diags %+v, want one error diag there", j, d)
			}
		})
	}
}
