package alloc

import (
	"strconv"
	"testing"

	"repro/internal/models"
	"repro/internal/spec"
)

// TestEnumerateExtensionsMatchesFilteredRange pins the extension
// stream to the bitset oracle: EnumerateExtensions(s, base) is exactly
// EnumerateRange's stream filtered to supersets of base, with and
// without useless buses, a range from start on is that stream's suffix,
// and it stops where the callback stops it.
func TestEnumerateExtensionsMatchesFilteredRange(t *testing.T) {
	synth := models.Synthetic(models.SyntheticParams{
		Seed: 5, Apps: 2, Depth: 1, Branch: 2, Vertices: 2,
		Processors: 2, ASICs: 2, Designs: 2, Buses: 3,
		TimedFraction: 0.3, AccelOnlyFraction: 0.3,
	})
	cases := []struct {
		name string
		s    *spec.Spec
		base spec.Allocation
	}{
		{"settop/{}", models.SetTopBox(), spec.Allocation{}},
		{"settop/{uP2}", models.SetTopBox(), spec.NewAllocation("uP2")},
		{"settop/{uP1}", models.SetTopBox(), spec.NewAllocation("uP1")},
		{"synth/{uP1}", synth, spec.NewAllocation("uP1")},
	}
	for _, tc := range cases {
		for _, include := range []bool{false, true} {
			label := tc.name
			if include {
				label += "+uselesscomm"
			}
			opts := Options{IncludeUselessComm: include}
			all, _ := collect(EnumerateRange, tc.s, opts, 0)
			var want []Candidate
			for _, c := range all {
				if tc.base.Subset(c.Allocation) {
					want = append(want, c)
				}
			}
			var got []Candidate
			EnumerateExtensions(tc.s, tc.base, opts, 0, func(c Candidate) bool {
				got = append(got, c)
				return true
			})
			if len(want) == 0 {
				t.Fatalf("%s: the oracle has no extension to compare", label)
			}
			sameCandidates(t, label, want, got)

			// A range from start on is the stream's suffix.
			start := len(want) / 3
			var suffix []Candidate
			EnumerateExtensions(tc.s, tc.base, opts, start, func(c Candidate) bool {
				suffix = append(suffix, c)
				return true
			})
			sameCandidates(t, label+" from "+strconv.Itoa(start), want[start:], suffix)

			stop := len(want)/2 + 1
			n := 0
			EnumerateExtensions(tc.s, tc.base, opts, 0, func(Candidate) bool {
				n++
				return n < stop
			})
			if n != stop {
				t.Errorf("%s: early stop at %d yielded %d", label, stop, n)
			}
		}
	}
}

func TestEnumerateExtensionsBaseFirst(t *testing.T) {
	s := buildFig2(t)
	base := spec.NewAllocation("uP")
	var first *Candidate
	n := 0
	EnumerateExtensions(s, base, Options{}, 0, func(c Candidate) bool {
		if first == nil {
			cl := Candidate{Allocation: c.Allocation.Clone(), Cost: c.Cost}
			first = &cl
		}
		if !base.Subset(c.Allocation) {
			t.Errorf("extension %v drops the base", c.Allocation)
		}
		n++
		return true
	})
	if first == nil || !first.Allocation.Equal(base) || first.Cost != 50 {
		t.Errorf("first extension = %v, want the base itself at 50", first)
	}
	if n < 2 {
		t.Errorf("extensions = %d, want several", n)
	}
}

func TestEnumerateExtensionsCostOrderAndPruning(t *testing.T) {
	s := buildFig2(t)
	base := spec.NewAllocation("uP")
	prev := -1.0
	seen := map[string]bool{}
	stats := EnumerateExtensions(s, base, Options{}, 0, func(c Candidate) bool {
		if c.Cost < prev {
			t.Errorf("cost order violated: %v after %v", c.Cost, prev)
		}
		prev = c.Cost
		if got := c.Allocation.Cost(s); got != c.Cost {
			t.Errorf("cost mismatch for %v: %v vs %v", c.Allocation, c.Cost, got)
		}
		seen[c.Allocation.String()] = true
		return true
	})
	if seen["{C1 uP}"] {
		t.Error("useless bus extension should be pruned")
	}
	if !seen["{C1 dD3 uP}"] {
		t.Error("useful bus extension missing")
	}
	if stats.PrunedComm != 0 {
		t.Errorf("PrunedComm = %d, want 0 (the useless-bus rule is in the BDD)", stats.PrunedComm)
	}
}

func TestEnumerateExtensionsImpossibleBase(t *testing.T) {
	s := buildFig2(t)
	// Base without the processor: the base itself is impossible, but
	// extensions adding uP become possible.
	base := spec.NewAllocation("A", "C2")
	var cands []string
	EnumerateExtensions(s, base, Options{}, 0, func(c Candidate) bool {
		cands = append(cands, c.Allocation.String())
		return true
	})
	if len(cands) == 0 {
		t.Fatal("extensions adding uP must appear")
	}
	if cands[0] != "{A C2 uP}" {
		t.Errorf("first possible extension = %s, want {A C2 uP}", cands[0])
	}
}

func TestEnumerateExtensionsMaxScanAndEarlyStop(t *testing.T) {
	s := buildFig2(t)
	stats := EnumerateExtensions(s, spec.NewAllocation("uP"), Options{MaxScan: 3}, 0, func(Candidate) bool { return true })
	if stats.Scanned > 3 {
		t.Errorf("MaxScan exceeded: %d", stats.Scanned)
	}
	n := 0
	EnumerateExtensions(s, spec.NewAllocation("uP"), Options{}, 0, func(Candidate) bool {
		n++
		return false
	})
	if n != 1 {
		t.Errorf("early stop yielded %d", n)
	}
}

func TestEnumerateExtensionsFullBase(t *testing.T) {
	s := buildFig2(t)
	full := spec.NewAllocation("uP", "A", "C1", "C2", "dD3", "dU2")
	n := 0
	EnumerateExtensions(s, full, Options{IncludeUselessComm: true}, 0, func(c Candidate) bool {
		if !c.Allocation.Equal(full) {
			t.Errorf("unexpected extension %v of the full base", c.Allocation)
		}
		n++
		return true
	})
	if n != 1 {
		t.Errorf("full base should yield exactly itself, got %d", n)
	}
}
