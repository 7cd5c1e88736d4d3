package core

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

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
		// so the scan-effort gauge Scanned may overshoot the
		// sequential run's; everything the commit folded — fronts,
		// cursor, reason, every semantic counter — must still be
		// identical.
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
				// Scanned is telemetry (zeroed by Semantic), so the
				// overshoot bound is checked on the raw counters.
				if tc.stopEarly && par.Stats.Scanned < seq.Stats.Scanned {
					t.Errorf("%s w=%d q=%d: pipeline scanned less than sequential", tc.name, w, q)
				}
				ps, ss := par.Stats.Semantic(), seq.Stats.Semantic()
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
// Implement from many goroutines and check the results against the
// uncached reference, run sequentially on a pristine spec instance.
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
		if im := referenceImplement(fresh, a, Options{}, nil); im != nil {
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
// allocs/op it reports the solver runs of one run.
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
}

// BenchmarkExploreSynthetic — the evaluation-cache benchmark: one
// EXPLORE run over a mid-size synthetic spec. The flexibility bound is
// disabled so every possible allocation is implemented — the
// candidate-evaluation hot path the caches target, not the subset scan
// around it. The custom metrics record the solver runs and the flatten
// cache's hit rate of one run.
func BenchmarkExploreSynthetic(b *testing.B) {
	p := models.SyntheticParams{Seed: 11, Apps: 3, Depth: 1, Branch: 3,
		Vertices: 2, Processors: 2, ASICs: 3, Designs: 3, Buses: 6,
		TimedFraction: 0.4, AccelOnlyFraction: 0.3}
	b.Run("cached", func(b *testing.B) {
		s := models.Synthetic(p)
		var st Stats
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st = Explore(s, Options{DisableFlexBound: true, MaxScan: 50000}).Stats
		}
		b.ReportMetric(float64(st.BindingRuns), "binding_runs")
		if n := st.Cache.FlattenHits + st.Cache.FlattenMisses; n > 0 {
			b.ReportMetric(float64(st.Cache.FlattenHits)/float64(n), "flatten_hit_rate")
		}
	})
	// The same run through ExploreParallel, whose fronts and semantic
	// stats match at every worker count. One worker runs Explore, which
	// "cached" measures. "workers=N", not "workers-N": go test appends
	// the GOMAXPROCS value as a trailing -N.
	for _, w := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			s := models.Synthetic(p)
			var st Stats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st = ExploreParallel(s, Options{
					DisableFlexBound: true, MaxScan: 50000,
				}, w, 0).Stats
			}
			b.ReportMetric(float64(st.BindingRuns), "binding_runs")
			b.ReportMetric(float64(st.Pipeline.CommitStalls), "commit_stalls")
			b.ReportMetric(float64(st.Pipeline.QueueHighWater), "queue_high_water")
			b.ReportMetric(float64(st.Pipeline.BatchesCommitted), "batches_committed")
			b.ReportMetric(float64(st.Pipeline.BoundPublishes), "bound_publishes")
		})
	}
}

// TestRecycledBatchesMatchInline: a fully committed batch's ring slot
// is refilled for a later job, records and attempt buffers included, so
// a record left dirty by its last candidate would show in the next.
// Two-worker runs of the exhaustive workload's spec and of synthetic 7
// — with errors and panics injected at both sites over far more
// batches than a run has out at once, and a Progress report every 16
// candidates — must report what the inline scan reports: front,
// cursor, reason, diagnostics and semantic counters, at every report
// and at the end. A panic is recovered only in a pool worker, so the
// inline run gets an error with the panic's message where the pool run
// panics. Every binding is its allocation's own solve, so the fronts
// match bindings included, with and without a node bound.
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
		// Each batch is recycled many times over: 16-candidate batches
		// once the ramp ends, more than 2×14 of them, and at most
		// queue+workers = 6 out at once.
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
				return Run(context.Background(), tc.s, opts, Request{}), reports
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
			same := func(what string, gotFront, wantFront []*Implementation, got, want Stats) {
				t.Helper()
				if !frontsEqual(gotFront, wantFront) {
					t.Errorf("%s nodes=%d %s: front %v, inline %v", tc.name, maxNodes, what, gotFront, wantFront)
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
				same(fmt.Sprintf("report at %d", want.cursor), got.front, want.front, got.stats, want.stats)
			}
			if pool.Stats.Pipeline.BatchesCommitted <= 2*14 {
				t.Errorf("%s nodes=%d: %d batches committed, want more than 2×14", tc.name, maxNodes, pool.Stats.Pipeline.BatchesCommitted)
			}
		}
	}
}

// takeOrder is EXPLORE's fold, recording the unit indices of every
// attempt the commit hands it, in the order it hands them over.
type takeOrder struct {
	*boundFold
	units [][]int
}

func (f *takeOrder) take(r *candRec) bool {
	f.units = append(f.units, slices.Clone(r.units))
	return f.boundFold.take(r)
}

// TestRingCommitsReversedJobsInOrder drives a pipeline whose only
// worker is a test goroutine that holds each ring's worth of range jobs,
// then evaluates and hands them back last first. The commit must still
// fold every attempt in candidate order; the worker must see no more
// batches than the ring has slots; and the run must report the inline
// run's front, cursor, reason and semantic counters. On synthetic 7,
// with the bound on, the worker evaluates later jobs on a bound the
// earlier ones have not raised yet, and the run settles long before
// its stream ends.
func TestRingCommitsReversedJobsInOrder(t *testing.T) {
	exhaustive, exOpts := exhaustiveSpec()
	for _, tc := range []struct {
		name string
		s    *spec.Spec
		opts Options
	}{
		{"exhaustive", exhaustive, exOpts},
		{"synthetic7", models.Synthetic(models.DefaultSynthetic(7)), Options{}},
	} {
		ctx := context.Background()
		inline := newScan(ctx, tc.s, tc.opts)
		want := &takeOrder{boundFold: inline.boundFold(0)}
		wantRes := inline.run(want, inline.candidates, 1, 0)
		// Both runs end at the stream's length, so the job ending there
		// is the last.
		length := wantRes.Cursor

		const ring = 4
		sc := newScan(ctx, tc.s, tc.opts)
		got := &takeOrder{boundFold: sc.boundFold(0)}
		sc.f = got
		// A pool of no workers, so the goroutine below is the only one,
		// over a ring of queue+workers = ring slots.
		p := sc.startPool(0, ring)
		seen := map[*pipeBatch]bool{}
		exited := make(chan struct{})
		go func() {
			defer close(exited)
			w := worker{scratch: sc.ev.evalScratch()}
			var held []*pipeBatch
			hand := func(b *pipeBatch) {
				seen[b] = true
				p.evaluate(b, &w)
				p.results <- b
			}
			handBack := func() {
				for len(held) > 0 {
					hand(held[len(held)-1])
					held = held[:len(held)-1]
				}
			}
			for {
				select {
				case b, ok := <-p.jobs:
					if !ok {
						return
					}
					if held = append(held, b); len(held) == ring || b.start+b.n == length {
						handBack()
					}
				case <-p.done:
					// The scan stopped: hand back what is held, then
					// each job as it comes.
					handBack()
					for b := range p.jobs {
						hand(b)
					}
					return
				}
			}
		}()
		res := sc.run(got, sc.candidates, 1, 0)
		p.stop()
		<-exited

		if !slices.EqualFunc(got.units, want.units, slices.Equal) {
			t.Errorf("%s: the commit folded %d attempts out of the inline order (%d attempts)", tc.name, len(got.units), len(want.units))
		}
		if len(seen) > ring {
			t.Errorf("%s: the worker saw %d batches, want at most %d", tc.name, len(seen), ring)
		}
		if res.Stats.Pipeline.CommitStalls == 0 {
			t.Errorf("%s: no job waited in its slot; the reversal did not happen", tc.name)
		}
		if res.Cursor != wantRes.Cursor || res.Reason != wantRes.Reason || !frontsEqual(res.Front, wantRes.Front) {
			t.Errorf("%s: cursor %d reason %q front %v, inline %d %q %v", tc.name, res.Cursor, res.Reason, res.Front, wantRes.Cursor, wantRes.Reason, wantRes.Front)
		}
		if g, w := res.Stats.Semantic(), wantRes.Stats.Semantic(); !reflect.DeepEqual(g, w) {
			t.Errorf("%s: semantic stats\npool:   %+v\ninline: %+v", tc.name, g, w)
		}
	}
}

// TestPooledStopAtMaxFlexCountsCommitted: a pooled StopAtMaxFlex run
// reports the candidates the inline scan counts, whatever the producer
// ran ahead of the stop. On the wide workload's spec the inline run
// stops at 642; two-worker runs had reported 1,020 to 3,196.
func TestPooledStopAtMaxFlexCountsCommitted(t *testing.T) {
	s := models.Synthetic(models.ScaledSynthetic(1, 22))
	opts := Options{StopAtMaxFlex: true}
	inline := Explore(s, opts)
	if inline.Reason != ReasonMaxFlex || inline.Stats.PossibleAllocations != 642 {
		t.Fatalf("inline: reason %q, %d possible allocations, want %q at 642", inline.Reason, inline.Stats.PossibleAllocations, ReasonMaxFlex)
	}
	for i := range 8 {
		r := ExploreParallel(s, opts, 2, 0)
		if r.Cursor != inline.Cursor || r.Stats.PossibleAllocations != 642 {
			t.Errorf("run %d: cursor %d, %d possible allocations, want %d and 642", i, r.Cursor, r.Stats.PossibleAllocations, inline.Cursor)
		}
		if g, w := r.Stats.Semantic(), inline.Stats.Semantic(); !reflect.DeepEqual(g, w) {
			t.Errorf("run %d: semantic stats\npool:   %+v\ninline: %+v", i, g, w)
		}
	}
}

// TestRecycledRecordStartsClean: record makes the commit's recycled
// record the candidate's own: it decodes the unit indices into the
// record's old buffer and overwrites every other field, so an
// unevaluated candidate's record keeps nothing of the last one.
func TestRecycledRecordStartsClean(t *testing.T) {
	buf := make([]int, 1, 4)
	r := candRec{
		units: buf, a: spec.Allocation{"x": true}, site: SiteImplement,
		est: 2, estimated: true, attempted: true,
		att:       attempt{ok: true, cost: 1, flex: 2, picks: make([]pick, 2), im: &Implementation{}},
		ecsTested: 1, bindingRuns: 2, bindingNodes: 3, diag: &Diag{},
	}
	// Every field is set, so a field record forgets fails below.
	for _, v := range []reflect.Value{reflect.ValueOf(r), reflect.ValueOf(r.att)} {
		for i := range v.NumField() {
			if v.Field(i).IsZero() {
				t.Fatalf("%s.%s is unset in the dirty record", v.Type().Name(), v.Type().Field(i).Name)
			}
		}
	}
	p := batchPipeline(1)
	b := p.slot(0)
	b.add([]int{4, 7}, p.nw)
	b.record(0, p.nw, &r)
	if !slices.Equal(r.units, []int{4, 7}) || &r.units[0] != &buf[0] {
		t.Errorf("units %v, want [4 7] in the old buffer", r.units)
	}
	rest := r
	rest.units = nil
	if !reflect.DeepEqual(rest, candRec{site: SiteEstimate}) {
		t.Errorf("record left %+v", rest)
	}
}

// batchPipeline is the producer side of a parallel scan of the
// exhaustive workload's spec, without workers, over a ring of the given
// number of slots: enough to open, fill and refill batches.
func batchPipeline(slots int) *pipeline {
	s, opts := exhaustiveSpec()
	sc := newScan(context.Background(), s, opts)
	return &pipeline{sc: sc, nw: bitset.WordsFor(len(sc.ev.units)), ring: make([]*pipeBatch, slots)}
}

// keptRecord is a worker record holding an attempt of flexibility 2,
// which a front may keep, with n picks, for candidate units.
func keptRecord(units []int, n int) candRec {
	return candRec{
		units: units, site: SiteImplement, est: 3, estimated: true, attempted: true,
		att:       attempt{ok: true, cost: 5, flex: 2, picks: make([]pick, n)},
		ecsTested: 4, bindingRuns: 6, bindingNodes: 1 << 40,
	}
}

// TestRecycledBatchAllocatesNothing: refilling a ring slot — a full
// range job of candidates at the spec's maximum unit count, each with a
// kept attempt's payload — allocates nothing: the unit words and
// results are sized once, and the payloads keep their storage.
func TestRecycledBatchAllocatesNothing(t *testing.T) {
	p := batchPipeline(1)
	all := make([]int, len(p.sc.ev.units))
	for k := range all {
		all[k] = k
	}
	w := &worker{rec: keptRecord(all, 3)}
	job := 0
	fill := func() {
		b := p.slot(job)
		job++
		for i := range len(b.res) {
			b.add(all, p.nw)
			b.put(i, w)
		}
	}
	fill()
	if n := testing.AllocsPerRun(20, fill); n != 0 {
		t.Errorf("refilling a ring slot allocates %v times, want 0", n)
	}
	b := p.ring[0]
	if got := b.unitSet(len(b.res)-1, p.nw).AppendTo(nil); !slices.Equal(got, all) {
		t.Errorf("the last candidate's units read %v, want %v", got, all)
	}
}

// TestFreshBatchAllocBytes: the first job in a ring slot on the
// exhaustive spec (32 candidates over 12 units) allocates the slot's
// batch in at most 64 bytes per candidate, unit words included —
// against 176 bytes per record plus the unit indices before results
// were compact.
func TestFreshBatchAllocBytes(t *testing.T) {
	const perCandidate, candidates = 64, 32
	const n = 100
	p := batchPipeline(n + 1)
	if b := p.slot(n); len(b.res) != candidates {
		t.Fatalf("a fresh slot holds %d candidates, want %d", len(b.res), candidates)
	}
	if size := int(unsafe.Sizeof(candResult{})) + 8*p.nw; size > perCandidate {
		t.Errorf("a candidate takes %d bytes, want at most %d", size, perCandidate)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := range n {
		p.slot(k)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > candidates*perCandidate {
		t.Errorf("a fresh %d-candidate slot allocates %d bytes, want at most %d", candidates, per, candidates*perCandidate)
	}
}

// TestRecycledResultStartsClean: slot hands a later job the ring slot's
// batch with every result of its last job zeroed — each field of
// candResult is set beforehand, so a field slot forgets fails — and its
// payloads emptied but kept for reuse.
func TestRecycledResultStartsClean(t *testing.T) {
	dirty := candResult{est: 1, cost: 2, flex: 3, bindingNodes: 4, ecsTested: 5, bindingRuns: 6, pay: 1, flags: resKept}
	v := reflect.ValueOf(dirty)
	for i := range v.NumField() {
		if v.Field(i).IsZero() {
			t.Fatalf("candResult.%s is unset in the dirty result", v.Type().Field(i).Name)
		}
	}
	const slots = 3
	p := batchPipeline(slots)
	b := p.slot(1)
	for i := range b.res {
		b.add([]int{i % len(p.sc.ev.units)}, p.nw)
		b.res[i] = dirty
	}
	b.pays = append(b.pays, payload{picks: make([]pick, 2), diag: &Diag{}})
	got := p.slot(1 + slots)
	if got != b || got.n != 0 {
		t.Fatalf("slot returned a batch of %d candidates, want the slot's own, empty", got.n)
	}
	for i, res := range got.res {
		if res != (candResult{}) {
			t.Fatalf("result %d left %+v", i, res)
		}
	}
	if len(got.pays) != 0 || cap(got.pays) != 1 || cap(got.pays[:1][0].picks) != 2 {
		t.Errorf("payloads len %d cap %d: want the old storage, empty", len(got.pays), cap(got.pays))
	}
}

// TestBatchResultCarriesRecord: what a worker's record puts into a batch
// is what the commit's record reads back — every field of candRec but
// the allocation map, which the commit builds on demand. An attempt at
// or below the worker's bound carries no picks; a Diag always rides
// along.
func TestBatchResultCarriesRecord(t *testing.T) {
	p := batchPipeline(1)
	full := keptRecord([]int{1, 4, 7}, 2)
	full.att.picks[1].en = &ecsEntry{}
	full.diag = &Diag{Message: "boom"}
	v := reflect.ValueOf(full)
	for i := range v.NumField() {
		if name := v.Type().Field(i).Name; v.Field(i).IsZero() && name != "a" {
			t.Fatalf("candRec.%s is unset in the full record", name)
		}
	}
	unkept := keptRecord([]int{0, 11}, 2)
	estimated := candRec{units: []int{2}, site: SiteEstimate, est: 1, estimated: true}

	for _, tc := range []struct {
		name  string
		r     candRec
		bound float64
		want  candRec
	}{
		{"full", full, 0, full},
		{"unkept", unkept, 2, func() candRec {
			w := unkept
			w.att.picks = nil
			return w
		}()},
		{"estimated", estimated, 0, estimated},
	} {
		b := p.slot(0)
		b.add(tc.r.units, p.nw)
		b.put(0, &worker{bound: tc.bound, rec: tc.r})
		var got candRec
		b.record(0, p.nw, &got)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: the commit reads\n%+v\nwant\n%+v", tc.name, got, tc.want)
		}
	}
}

// exhaustiveSpec is the benchmark's exhaustive workload: synthetic
// model 1 with four buses, every possible allocation implemented.
func exhaustiveSpec() (*spec.Spec, Options) {
	p := models.DefaultSynthetic(1)
	p.Buses = 4
	return models.Synthetic(p), Options{DisableFlexBound: true, IncludeUselessComm: true}
}

// quietGoroutines returns runtime.NumGoroutine once it holds still for
// a millisecond: a goroutine that has signalled its exit takes a moment
// to leave the count.
func quietGoroutines() int {
	n := runtime.NumGoroutine()
	for range 1000 {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

// requireGoroutines waits up to five seconds for the goroutine count to
// fall to want.
func requireGoroutines(t *testing.T, what string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n != want {
		t.Errorf("%s: %d goroutines after the run, want the baseline %d", what, n, want)
	}
}

// TestProgressPanicReachesCaller: a panic in Progress during a pooled
// run propagates to the caller, as it does inline, and the pool is torn
// down on the way out: no worker outlives the call.
func TestProgressPanicReachesCaller(t *testing.T) {
	s, opts := exhaustiveSpec()
	opts.ProgressEvery = 4
	opts.Progress = func(p Progress) {
		if p.Cursor >= 8 {
			panic("progress boom")
		}
	}
	base := quietGoroutines()
	var got any
	func() {
		defer func() { got = recover() }()
		ExploreParallel(s, opts, 2, 0)
	}()
	if got != "progress boom" {
		t.Fatalf("recovered %v, want the Progress panic", got)
	}
	requireGoroutines(t, "panicked run", base)
}

// TestPoolSpawnsOnlyWorkers: a 2-worker run starts its two workers and
// no other goroutine, and all of them have exited when it returns —
// whether it completes, is cancelled by a failpoint, or settles.
func TestPoolSpawnsOnlyWorkers(t *testing.T) {
	exhaustive, exOpts := exhaustiveSpec()
	cases := []struct {
		name   string
		s      *spec.Spec
		opts   Options
		cancel int // candidate index of a Cancel failpoint, or -1
		reason Reason
	}{
		{"completed", exhaustive, exOpts, -1, ReasonCompleted},
		{"cancelled", exhaustive, exOpts, 600, ReasonCancelled},
		{"settled", models.Synthetic(models.DefaultSynthetic(7)), Options{}, -1, ReasonCompleted},
	}
	for _, tc := range cases {
		ctx, cancel := context.WithCancel(context.Background())
		opts := tc.opts
		if tc.cancel >= 0 {
			opts.Fault = faultinject.New().CancelAt(SiteEstimate, tc.cancel).Bind(cancel)
		}
		base := quietGoroutines()
		reports := 0
		opts.ProgressEvery = 16
		opts.Progress = func(Progress) {
			reports++
			if n := runtime.NumGoroutine(); n != base+2 {
				t.Errorf("%s: %d goroutines in Progress, want the baseline %d + 2 workers", tc.name, n, base)
			}
		}
		r := explore(ctx, tc.s, opts, 2, 0)
		requireGoroutines(t, tc.name, base)
		cancel()
		if r.Reason != tc.reason || reports == 0 {
			t.Errorf("%s: reason %q after %d reports, want %q", tc.name, r.Reason, reports, tc.reason)
		}
		if tc.name == "settled" && r.Stats.Estimated >= r.Cursor {
			t.Errorf("settled: %d estimates of %d candidates, want a settled run", r.Stats.Estimated, r.Cursor)
		}
	}
}
