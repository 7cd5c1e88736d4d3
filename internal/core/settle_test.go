package core

import (
	"fmt"
	"testing"

	"repro/internal/alloc"
	"repro/internal/models"
	"repro/internal/spec"
)

// requireSettled checks what a run that settled at cursor c reports:
// what the full scan of a stream of length candidates reports
// (completed, the cursor and the possible count at the stream's end,
// the reference front), with only the c candidates before the settle
// point estimated.
func requireSettled(t *testing.T, name string, r *Result, c, length int, want []*Implementation) {
	t.Helper()
	if r.Interrupted || r.Reason != ReasonCompleted {
		t.Errorf("%s: interrupted=%v reason=%q, want completed", name, r.Interrupted, r.Reason)
	}
	if r.Cursor != length || r.Stats.PossibleAllocations != length {
		t.Errorf("%s: cursor %d, possible %d, want the stream's length %d", name, r.Cursor, r.Stats.PossibleAllocations, length)
	}
	if r.Stats.Estimated != c {
		t.Errorf("%s: %d estimates, want %d (the settle cursor)", name, r.Stats.Estimated, c)
	}
	if !frontsEqual(r.Front, want) {
		t.Errorf("%s: front %v, want %v", name, r.Front, want)
	}
}

// TestSettledTailIsPruned is the proof obligation of the settle stop:
// every candidate past the point where the front reaches
// MaxFlexibility has an estimate of at most MaxFlexibility, so the
// bound prunes the whole tail, and a run that stops walking there
// reports exactly what the full scan reports. It covers Explore, a
// two-worker ExploreParallel, the uncached path and Upgrade, weighted
// and unweighted, and resumes from a snapshot taken past the settle
// point.
func TestSettledTailIsPruned(t *testing.T) {
	specs := []struct {
		name string
		s    *spec.Spec
	}{
		{"settop", models.SetTopBox()},
		{"sdr", models.SDR()},
		{"synthetic2", models.Synthetic(models.DefaultSynthetic(2))},
		{"synthetic3", models.Synthetic(models.DefaultSynthetic(3))},
		{"synthetic7", models.Synthetic(models.DefaultSynthetic(7))},
	}
	for _, sp := range specs {
		for _, weighted := range []bool{false, true} {
			s, opts := sp.s, Options{Weighted: weighted}
			name := fmt.Sprintf("%s weighted=%v", sp.name, weighted)
			maxFlex := MaxFlexibility(s, opts)

			// tail walks the stream from the settle cursor c on and
			// returns the stream's length.
			tail := func(what string, c int, stream func(start int, fn func(alloc.Candidate) bool)) int {
				length := c
				stream(c, func(cand alloc.Candidate) bool {
					if est := Estimate(s, cand.Allocation, opts); est > maxFlex {
						t.Fatalf("%s %s: candidate %d %v estimates %g > MaxFlexibility %g",
							name, what, length, cand.Allocation, est, maxFlex)
					}
					length++
					return true
				})
				if c >= length {
					t.Fatalf("%s %s: settles at %d of %d candidates: no tail to prune", name, what, c, length)
				}
				return length
			}

			stop := Explore(s, Options{Weighted: weighted, StopAtMaxFlex: true})
			if stop.Reason != ReasonMaxFlex {
				t.Fatalf("%s: the front never reaches MaxFlexibility (%s)", name, stop.Reason)
			}
			c := stop.Cursor
			length := tail("explore", c, func(start int, fn func(alloc.Candidate) bool) {
				alloc.EnumerateSymbolicRange(s, alloc.Options{}, start, fn)
			})
			ref := Exhaustive(s, opts).Front
			full := Explore(s, opts)
			requireSettled(t, name+" explore", full, c, length, ref)
			requireSettled(t, name+" parallel2", ExploreParallel(s, opts, 2, 0), c, length, ref)
			requireSettled(t, name+" uncached", Explore(s, Options{Weighted: weighted, DisableCache: true}), c, length, ref)

			// A snapshot taken past the settle point (as a scan that
			// walked the whole stream took it) already holds the whole
			// front: the resumed run settles before it evaluates
			// anything.
			res := &Resume{Cursor: c + 10, Front: full.Front}
			resumed := Explore(s, Options{Weighted: weighted, Resume: res})
			requireSettled(t, name+" resumed past the settle point", resumed, 0, length, ref)

			if sp.name != "settop" {
				continue
			}
			base := spec.NewAllocation("uP2")
			up := Upgrade(s, base, Options{Weighted: weighted, StopAtMaxFlex: true})
			if up.Reason != ReasonMaxFlex {
				t.Fatalf("%s upgrade: the front never reaches MaxFlexibility (%s)", name, up.Reason)
			}
			extensions := func(base spec.Allocation) func(int, func(alloc.Candidate) bool) {
				return func(start int, fn func(alloc.Candidate) bool) {
					alloc.EnumerateExtensions(s, base, alloc.Options{}, start, fn)
				}
			}
			upLength := tail("upgrade", up.Cursor, extensions(base))
			upRef := Upgrade(s, base, Options{Weighted: weighted, DisableFlexBound: true}).Front
			requireSettled(t, name+" upgrade", Upgrade(s, base, opts), up.Cursor, upLength, upRef)

			// A base that already reaches the maximum settles the same
			// way, before any extension is estimated.
			top := ref[len(ref)-1].Allocation
			topLength := tail("upgrade from the top", 0, extensions(top))
			requireSettled(t, name+" upgrade from the top", Upgrade(s, top, opts), 0, topLength, nil)
		}
	}
}
