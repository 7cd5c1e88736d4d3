package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/alloc"
	"repro/internal/bitset"
	"repro/internal/faultinject"
	"repro/internal/models"
	"repro/internal/spec"
)

func sameFronts(t *testing.T, a, b *Result) {
	t.Helper()
	if len(a.Front) != len(b.Front) {
		t.Fatalf("front sizes differ: %d vs %d", len(a.Front), len(b.Front))
	}
	for i := range a.Front {
		if a.Front[i].Cost != b.Front[i].Cost ||
			a.Front[i].Flexibility != b.Front[i].Flexibility ||
			!a.Front[i].Allocation.Equal(b.Front[i].Allocation) {
			t.Errorf("row %d differs: %v vs %v", i, a.Front[i], b.Front[i])
		}
	}
}

// TestExploreParallelMatchesSequential: identical fronts (including the
// representatives at equal-cost ties) for several worker/queue shapes.
func TestExploreParallelMatchesSequential(t *testing.T) {
	s := models.SetTopBox()
	seq := Explore(s, Options{})
	for _, cfg := range []struct{ workers, queue int }{
		{2, 1}, {2, 8}, {4, 16}, {8, 64}, {0, 0},
	} {
		par := ExploreParallel(s, Options{}, cfg.workers, cfg.queue)
		sameFronts(t, seq, par)
		if par.Stats.PossibleAllocations != seq.Stats.PossibleAllocations {
			t.Errorf("possible allocations differ: %d vs %d",
				par.Stats.PossibleAllocations, seq.Stats.PossibleAllocations)
		}
		// The batch lag may only increase attempts.
		if par.Stats.Attempted < seq.Stats.Attempted {
			t.Errorf("parallel attempted %d < sequential %d",
				par.Stats.Attempted, seq.Stats.Attempted)
		}
	}
}

func TestExploreParallelSDR(t *testing.T) {
	s := models.SDR()
	sameFronts(t, Explore(s, Options{}), ExploreParallel(s, Options{}, 4, 8))
}

func TestExploreParallelSingleWorker(t *testing.T) {
	s := models.Decoder()
	sameFronts(t, Explore(s, Options{}), ExploreParallel(s, Options{}, 1, 0))
}

// Property: parallel and sequential exploration agree on synthetic
// models across worker counts.
func TestPropParallelAgrees(t *testing.T) {
	prop := func(seed int64) bool {
		p := models.SyntheticParams{
			Seed: seed % 30, Apps: 2, Depth: 1, Branch: 2, Vertices: 2,
			Processors: 2, ASICs: 1, Designs: 1, Buses: 3,
			TimedFraction: 0.3, AccelOnlyFraction: 0.3,
		}
		s := models.Synthetic(p)
		seq := Explore(s, Options{})
		par := ExploreParallel(s, Options{}, 3, 5)
		if len(seq.Front) != len(par.Front) {
			return false
		}
		for i := range seq.Front {
			if seq.Front[i].Cost != par.Front[i].Cost ||
				seq.Front[i].Flexibility != par.Front[i].Flexibility ||
				!seq.Front[i].Allocation.Equal(par.Front[i].Allocation) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestPipelineDifferentialGrid: across a grid of specs × worker counts
// × queue depths, the pipelined explorer produces bit-identical fronts,
// cursors, termination reasons and Semantic() stats to the sequential
// explorer. The strict ordered per-candidate commit plus the
// second-chance bound check make even Estimated/Attempted/ECSTested/
// Feasible exactly equal (the stale bound a worker caches per batch is
// never above the commit-time bound, so the commit's re-check removes
// precisely the extra attempts). CI runs this under -race.
func TestPipelineDifferentialGrid(t *testing.T) {
	synth := func(seed int64) *spec.Spec {
		return models.Synthetic(models.SyntheticParams{
			Seed: seed, Apps: 2, Depth: 1, Branch: 2, Vertices: 2,
			Processors: 2, ASICs: 2, Designs: 2, Buses: 3,
			TimedFraction: 0.3, AccelOnlyFraction: 0.3,
		})
	}
	specs := []struct {
		name string
		s    *spec.Spec
		opts Options
		// stopEarly marks runs that end before the scan is exhausted.
		// There the producer legitimately enumerates ahead of the stop
		// decision still in flight (bounded by the pipeline capacity),
		// so the scan-effort counters Scanned/PossibleAllocations may
		// overshoot the sequential run's; everything the commit stage
		// folded — fronts, cursor, reason, evaluation counters — must
		// still be identical.
		stopEarly bool
	}{
		{"settop", models.SetTopBox(), Options{}, false},
		{"decoder", models.Decoder(), Options{}, false},
		{"synth3", synth(3), Options{}, false},
		{"synth7-nobound", synth(7), Options{DisableFlexBound: true}, false},
		{"settop-stopmax", models.SetTopBox(), Options{StopAtMaxFlex: true}, true},
	}
	for _, tc := range specs {
		seq := Explore(tc.s, tc.opts)
		for _, w := range []int{2, 4, 8} {
			for _, q := range []int{1, 4, 32} {
				par := ExploreParallel(tc.s, tc.opts, w, q)
				sameFronts(t, seq, par)
				if par.Cursor != seq.Cursor {
					t.Errorf("%s w=%d q=%d: cursor %d != sequential %d",
						tc.name, w, q, par.Cursor, seq.Cursor)
				}
				if par.Reason != seq.Reason {
					t.Errorf("%s w=%d q=%d: reason %q != sequential %q",
						tc.name, w, q, par.Reason, seq.Reason)
				}
				ps, ss := par.Stats.Semantic(), seq.Stats.Semantic()
				if tc.stopEarly {
					// Scanned is telemetry (zeroed by Semantic), so the
					// overshoot bound is checked on the raw counters.
					if par.Stats.Scanned < seq.Stats.Scanned || ps.PossibleAllocations < ss.PossibleAllocations {
						t.Errorf("%s w=%d q=%d: pipeline scanned less than sequential", tc.name, w, q)
					}
					ps.PossibleAllocations, ss.PossibleAllocations = 0, 0
				}
				if !reflect.DeepEqual(ps, ss) {
					t.Errorf("%s w=%d q=%d: semantic stats diverge:\npar: %+v\nseq: %+v",
						tc.name, w, q, ps, ss)
				}
			}
		}
	}
}

// TestPipelineCounters: the new pipeline gauges are populated for
// parallel runs, absent from sequential ones, and excluded from the
// semantic view. Workers records the pool size — the total goroutine
// spawn count — independent of how many candidates flow through, which
// is the "no per-candidate goroutine" invariant in observable form.
func TestPipelineCounters(t *testing.T) {
	s := models.SetTopBox()
	r := ExploreParallel(s, Options{DisableFlexBound: true}, 3, 5)
	p := r.Stats.Pipeline
	if p.Workers != 3 || p.QueueDepth != 5 {
		t.Fatalf("pipeline shape not recorded: %+v", p)
	}
	if r.Stats.PossibleAllocations <= p.Workers {
		t.Fatalf("model too small to distinguish pool from per-candidate spawning")
	}
	if p.QueueHighWater < 1 || p.QueueHighWater > p.QueueDepth {
		t.Errorf("queue high water %d outside [1, %d]", p.QueueHighWater, p.QueueDepth)
	}
	if p.BusyNanos <= 0 {
		t.Errorf("no worker busy time recorded")
	}
	if r.Stats.Semantic().Pipeline != (PipelineStats{}) {
		t.Errorf("pipeline gauges leak into the semantic view")
	}
	if seq := Explore(s, Options{}); seq.Stats.Pipeline != (PipelineStats{}) {
		t.Errorf("sequential run reports pipeline stats: %+v", seq.Stats.Pipeline)
	}
}

// TestImplementConcurrentAfterWarmup: the parallel explorer relies on a
// single warm-up Estimate building every lazy index of the shared
// specification before workers hit it concurrently. Exercise exactly
// that pattern under the race detector: warm up once, then hammer
// Implement from many goroutines and check the results against a
// sequential run on a pristine spec instance.
func TestImplementConcurrentAfterWarmup(t *testing.T) {
	s := models.SetTopBox()
	_ = Estimate(s, spec.Allocation{}, Options{})

	var cands []spec.Allocation
	alloc.Enumerate(s, alloc.Options{}, func(c alloc.Candidate) bool {
		cands = append(cands, c.Allocation.Clone())
		return len(cands) < 40
	})

	want := make([][2]float64, len(cands))
	fresh := models.SetTopBox()
	for i, a := range cands {
		want[i] = [2]float64{-1, -1}
		if im := Implement(fresh, a, Options{}, nil); im != nil {
			want[i] = [2]float64{im.Cost, im.Flexibility}
		}
	}

	const workers = 8
	got := make([][2]float64, len(cands))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(cands); i += workers {
				got[i] = [2]float64{-1, -1}
				if im := Implement(s, cands[i], Options{}, nil); im != nil {
					got[i] = [2]float64{im.Cost, im.Flexibility}
				}
			}
		}(w)
	}
	wg.Wait()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("concurrent Implement results diverge from sequential run")
	}
}

func BenchmarkExploreParallel(b *testing.B) {
	s := models.SetTopBox()
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(Explore(s, Options{DisableFlexBound: true}).Front) != 6 {
				b.Fatal("front")
			}
		}
	})
	b.Run("parallel-4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(ExploreParallel(s, Options{DisableFlexBound: true}, 4, 32).Front) != 6 {
				b.Fatal("front")
			}
		}
	})
}

// BenchmarkExploreExhaustiveSynthetic is the implement path's per-layer
// number: the benchmark's exhaustive workload (synthetic model 1 with
// four buses, every possible allocation implemented, useless buses
// included) through ExploreParallel with 2 workers. Besides B/op and
// allocs/op it reports the solver runs, the binding-memo replays and
// the memo's exact-key hits of one run.
func BenchmarkExploreExhaustiveSynthetic(b *testing.B) {
	p := models.DefaultSynthetic(1)
	p.Buses = 4
	s := models.Synthetic(p)
	opts := Options{DisableFlexBound: true, IncludeUselessComm: true}
	b.ReportAllocs()
	b.ResetTimer()
	var r *Result
	for i := 0; i < b.N; i++ {
		r = ExploreParallel(s, opts, 2, 0)
		if r.Reason != ReasonCompleted || len(r.Front) != 4 {
			b.Fatalf("front of %d points (%s), want the 4-point front", len(r.Front), r.Reason)
		}
	}
	b.ReportMetric(float64(r.Stats.BindingRuns), "bindruns/op")
	b.ReportMetric(float64(r.Stats.Cache.BindReplayHits), "replays/op")
	b.ReportMetric(float64(r.Stats.Cache.BindExactHits), "exacthits/op")
}

// TestRecycledBatchesMatchInline: batches the commit stage hands back
// are refilled, records and attempt buffers included, so a record left
// dirty by its last candidate would show in the next. Two-worker runs
// of the exhaustive workload's spec and of synthetic 7 — with errors
// and panics injected at both sites over far more batches than the
// free list holds, and a Progress report every 16 candidates — must
// report what the inline scan reports: front, cursor, reason,
// diagnostics and semantic counters, at every report and at the end.
// A panic is recovered only in a pool worker, so the inline run gets
// an error with the panic's message where the pool run panics. With a
// node bound every witness comes from a deterministic solve, so the
// fronts' JSON, bindings included, must match too.
func TestRecycledBatchesMatchInline(t *testing.T) {
	p := models.DefaultSynthetic(1)
	p.Buses = 4
	cases := []struct {
		name string
		s    *spec.Spec
		opts Options
	}{
		{"exhaustive", models.Synthetic(p), Options{DisableFlexBound: true, IncludeUselessComm: true}},
		{"synthetic7", models.Synthetic(models.DefaultSynthetic(7)), Options{}},
	}
	type report struct {
		cursor int
		front  []*Implementation
		stats  Stats
	}
	for _, tc := range cases {
		// Faults aimed past the settle point never fire.
		n := settleCursor(tc.s, tc.opts)
		const faults = 12
		// More batches than the free list holds: 16-candidate batches
		// once the ramp ends, and 2×(queue+workers)+2 = 14 slots.
		if n/16 <= 2*14 {
			t.Fatalf("%s: %d candidates are too few batches", tc.name, n)
		}
		for _, maxNodes := range []int{0, 1 << 20} {
			run := func(pool bool) (*Result, []report) {
				plan := faultinject.New()
				for k := range faults {
					idx := (2*k + 1) * n / (2 * faults)
					site := []string{SiteEstimate, SiteImplement}[k%2]
					msg := fmt.Sprintf("poisoned %d", k)
					switch {
					case k%4 < 2:
						plan.ErrorAt(site, idx, nil)
					case pool:
						plan.PanicAt(site, idx, msg)
					default:
						plan.ErrorAt(site, idx, fmt.Errorf("faultinject: %s[%d]: %s", site, idx, msg))
					}
				}
				var reports []report
				opts := tc.opts
				opts.MaxBindNodes = maxNodes
				opts.Fault = plan
				opts.ProgressEvery = 16
				opts.Progress = func(p Progress) {
					reports = append(reports, report{p.Cursor, p.Front, p.Stats})
				}
				if pool {
					return ExploreParallel(tc.s, opts, 2, 0), reports
				}
				return ExploreContext(context.Background(), tc.s, opts), reports
			}
			// semantic is Stats.Semantic with every recovered panic
			// turned into the error the inline run records instead.
			semantic := func(st Stats) Stats {
				st = st.Semantic()
				st.Diags = slices.Clone(st.Diags)
				for i := range st.Diags {
					if d := &st.Diags[i]; d.Kind == DiagPanic {
						if d.Stack == "" {
							t.Errorf("%s: panic diag %+v has no stack", tc.name, *d)
						}
						d.Kind, d.Stack = DiagError, ""
					}
				}
				return st
			}
			frontJSON := func(front []*Implementation) string {
				b, err := (&Result{Front: front}).MarshalJSON()
				if err != nil {
					t.Fatal(err)
				}
				return string(b)
			}
			same := func(what string, gotFront, wantFront []*Implementation, got, want Stats) {
				t.Helper()
				if !frontsEqual(gotFront, wantFront) {
					t.Errorf("%s nodes=%d %s: front %v, inline %v", tc.name, maxNodes, what, gotFront, wantFront)
				}
				if maxNodes > 0 && frontJSON(gotFront) != frontJSON(wantFront) {
					t.Errorf("%s nodes=%d %s: front JSON differs from the inline run's", tc.name, maxNodes, what)
				}
				if g, w := semantic(got), semantic(want); !reflect.DeepEqual(g, w) {
					t.Errorf("%s nodes=%d %s: semantic stats\npool:   %+v\ninline: %+v", tc.name, maxNodes, what, g, w)
				}
			}

			inline, inlineReports := run(false)
			pool, poolReports := run(true)
			// Every estimate fault fires; an implement fault fires
			// where the candidate is attempted, which is everywhere
			// without the bound.
			if want := faults / 2; len(inline.Stats.Diags) < want || tc.opts.DisableFlexBound && len(inline.Stats.Diags) != faults {
				t.Fatalf("%s nodes=%d: %d diags of %d faults", tc.name, maxNodes, len(inline.Stats.Diags), faults)
			}
			if pool.Cursor != inline.Cursor || pool.Reason != inline.Reason {
				t.Errorf("%s nodes=%d: cursor %d reason %q, inline %d %q", tc.name, maxNodes, pool.Cursor, pool.Reason, inline.Cursor, inline.Reason)
			}
			same("result", pool.Front, inline.Front, pool.Stats, inline.Stats)
			if len(poolReports) != len(inlineReports) {
				t.Fatalf("%s nodes=%d: %d reports, inline %d", tc.name, maxNodes, len(poolReports), len(inlineReports))
			}
			for i, want := range inlineReports {
				got := poolReports[i]
				if got.cursor != want.cursor {
					t.Fatalf("%s nodes=%d: report %d at cursor %d, inline %d", tc.name, maxNodes, i, got.cursor, want.cursor)
				}
				// The producer enumerates ahead of the commit stage, so
				// a pool report counts more possible candidates; the
				// final counts agree.
				got.stats.PossibleAllocations = want.stats.PossibleAllocations
				same(fmt.Sprintf("report at %d", want.cursor), got.front, want.front, got.stats, want.stats)
			}
			if pool.Stats.Pipeline.BatchesCommitted <= 2*14 {
				t.Errorf("%s nodes=%d: %d batches committed, want more than the free list holds", tc.name, maxNodes, pool.Stats.Pipeline.BatchesCommitted)
			}
		}
	}
}

// TestRecycledRecordStartsClean: reset zeroes every field of a record
// except the storage of its attempt's implemented set and picks, which
// it keeps (empty picks, same backing arrays) for the next attempt.
func TestRecycledRecordStartsClean(t *testing.T) {
	words := bitset.New(130)
	words.Add(3)
	picks := make([]pick, 2, 5)
	r := candRec{
		units: []int{1}, a: spec.Allocation{"x": true}, site: SiteImplement,
		est: 2, estimated: true, attempted: true,
		att: attempt{
			ok: true, cost: 1, flex: 2, implemented: words, picks: picks,
			im: &Implementation{},
		},
		ecsTested: 1, bindingRuns: 2, bindingNodes: 3, diag: &Diag{},
	}
	// Every field is set, so a field reset forgets fails below.
	for _, v := range []reflect.Value{reflect.ValueOf(r), reflect.ValueOf(r.att)} {
		for i := range v.NumField() {
			if v.Field(i).IsZero() {
				t.Fatalf("%s.%s is unset in the dirty record", v.Type().Name(), v.Type().Field(i).Name)
			}
		}
	}
	units := []int{4, 7}
	r.reset(units)
	if len(r.units) != 2 || &r.units[0] != &units[0] {
		t.Errorf("units %v, want the given slice", r.units)
	}
	if len(r.att.picks) != 0 || cap(r.att.picks) != 5 || &r.att.picks[:1][0] != &picks[0] {
		t.Errorf("picks len %d cap %d: want the old storage, empty", len(r.att.picks), cap(r.att.picks))
	}
	r.att.implemented.Add(5)
	if !words.Has(5) {
		t.Error("the implemented set no longer shares the old words")
	}
	rest := r
	rest.units, rest.att.implemented, rest.att.picks = nil, bitset.Set{}, nil
	if !reflect.DeepEqual(rest, candRec{}) {
		t.Errorf("reset left %+v", rest)
	}
}
