package core

import (
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/alloc"
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
