package alloc

import (
	"math/big"
	"testing"

	"repro/internal/models"
	"repro/internal/spec"
)

// collect drains an enumerator into a comparable candidate list.
func collect(enum func(*spec.Spec, Options, int, func(Candidate) bool) Stats, s *spec.Spec, opts Options, start int) ([]Candidate, Stats) {
	var out []Candidate
	stats := enum(s, opts, start, func(c Candidate) bool {
		out = append(out, Candidate{Allocation: c.Allocation.Clone(), Cost: c.Cost})
		return true
	})
	return out, stats
}

// sameCandidates fails unless the two streams are bit-identical:
// same length, same order, same costs, same allocations.
func sameCandidates(t *testing.T, label string, bit, sym []Candidate) {
	t.Helper()
	if len(bit) != len(sym) {
		t.Fatalf("%s: bitset emitted %d candidates, symbolic %d", label, len(bit), len(sym))
	}
	for i := range bit {
		if bit[i].Cost != sym[i].Cost || !bit[i].Allocation.Equal(sym[i].Allocation) {
			t.Fatalf("%s: candidate %d differs: bitset %v ($%v), symbolic %v ($%v)",
				label, i, bit[i].Allocation, bit[i].Cost, sym[i].Allocation, sym[i].Cost)
		}
	}
}

// TestSymbolicStreamMatchesBitset is the producer-level differential
// test against the bitset oracle: on every spec the scan can still
// reach, the symbolic producer emits the bit-identical candidate
// stream, with both useless-bus settings, while visiting no more nodes
// than the scan scans.
func TestSymbolicStreamMatchesBitset(t *testing.T) {
	synth := func(seed int64) *spec.Spec {
		return models.Synthetic(models.SyntheticParams{
			Seed: seed, Apps: 2, Depth: 1, Branch: 2, Vertices: 2,
			Processors: 2, ASICs: 2, Designs: 2, Buses: 3,
			TimedFraction: 0.3, AccelOnlyFraction: 0.3,
		})
	}
	specs := map[string]*spec.Spec{
		"fig2":    buildFig2(t),
		"settop":  models.SetTopBox(),
		"decoder": models.Decoder(),
		"sdr":     models.SDR(),
		"synth3":  synth(3),
		"synth5":  synth(5),
		"synth7":  synth(7),
	}
	for name, s := range specs {
		for _, include := range []bool{false, true} {
			label := name
			if include {
				label += "+uselesscomm"
			}
			opts := Options{IncludeUselessComm: include}
			bit, bitStats := collect(EnumerateRange, s, opts, 0)
			sym, symStats := collect(EnumerateSymbolicRange, s, opts, 0)
			sameCandidates(t, label, bit, sym)
			if bitStats.Possible != symStats.Possible {
				t.Errorf("%s: Possible = %d (bitset) vs %d (symbolic)", label, bitStats.Possible, symStats.Possible)
			}
			if bitStats.SearchSpace != symStats.SearchSpace {
				t.Errorf("%s: SearchSpace differs", label)
			}
			if symStats.Scanned > bitStats.Scanned {
				t.Errorf("%s: symbolic visited %d nodes, more than the %d subsets the scan needed",
					label, symStats.Scanned, bitStats.Scanned)
			}
			if symStats.PrunedComm != 0 {
				t.Errorf("%s: symbolic PrunedComm = %d, want 0 (rule is in the BDD)", label, symStats.PrunedComm)
			}
		}
	}
}

// TestSymbolicRangeSuffix checks the range contract: starting the
// symbolic producer at cursor k yields exactly the bitset stream's
// suffix from k.
func TestSymbolicRangeSuffix(t *testing.T) {
	s := models.SetTopBox()
	full, _ := collect(EnumerateRange, s, Options{}, 0)
	for _, start := range []int{1, 7, 100, len(full) - 1, len(full), len(full) + 5} {
		sym, stats := collect(EnumerateSymbolicRange, s, Options{}, start)
		wantLen := len(full) - start
		if wantLen < 0 {
			wantLen = 0
		}
		if len(sym) != wantLen {
			t.Fatalf("start %d: got %d candidates, want %d", start, len(sym), wantLen)
		}
		sameCandidates(t, "suffix", full[len(full)-wantLen:], sym)
		if stats.Possible != len(full) {
			t.Errorf("start %d: Possible = %d, want %d (skipped candidates still counted)", start, stats.Possible, len(full))
		}
	}
}

// TestSymbolicEarlyStop: returning false from the callback stops the
// producer mid-stream, as with the scan.
func TestSymbolicEarlyStop(t *testing.T) {
	s := models.SetTopBox()
	n := 0
	EnumerateSymbolic(s, Options{}, func(Candidate) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("callback ran %d times, want 5", n)
	}
}

// TestSymbolicMaxScanBudget: MaxScan bounds symbolic visits the way it
// bounds scanned subsets — a budget in the producer's own unit.
func TestSymbolicMaxScanBudget(t *testing.T) {
	s := models.SetTopBox()
	_, unbounded := collect(EnumerateSymbolicRange, s, Options{}, 0)
	budget := unbounded.Scanned / 2
	got, stats := collect(EnumerateSymbolicRange, s, Options{MaxScan: budget}, 0)
	if stats.Scanned > budget {
		t.Errorf("Scanned = %d, exceeds MaxScan %d", stats.Scanned, budget)
	}
	if len(got) == 0 || len(got) >= unbounded.Possible {
		t.Errorf("budgeted run emitted %d of %d candidates, want a proper prefix", len(got), unbounded.Possible)
	}
	if !stats.BudgetCut || unbounded.BudgetCut {
		t.Errorf("BudgetCut = %v bounded, %v unbounded; want true, false", stats.BudgetCut, unbounded.BudgetCut)
	}
	if _, exact := collect(EnumerateSymbolicRange, s, Options{MaxScan: unbounded.Scanned}, 0); exact.BudgetCut {
		t.Error("a budget the walk exactly exhausts reported a cut")
	}
	// The budgeted emission is a prefix of the unbounded stream.
	full, _ := collect(EnumerateSymbolicRange, s, Options{}, 0)
	sameCandidates(t, "budget-prefix", full[:len(got)], got)
}

// TestSymbolicVisitBounds pins the tentpole's acceptance numbers: the
// symbolic producer's visit counter stays far below the 2^n subsets
// the bitset scan would pop to reach the same stream position.
//
//   - Case study (14 units): the full enumeration — all possible
//     allocations, not a prefix — visits no more than the 2^14 = 16384
//     subsets the scan is pinned to (measured: 4702 with useless buses
//     pruned, 12800 with them included).
//   - Scaled synthetic (30 units): a 4096-candidate cost-ordered prefix
//     visits at least 10x fewer nodes than the 2^30 subsets the scan
//     would have to pop before it could emit anything past the prefix.
func TestSymbolicVisitBounds(t *testing.T) {
	settop := models.SetTopBox()
	for _, include := range []bool{false, true} {
		_, st := collect(EnumerateSymbolicRange, settop, Options{IncludeUselessComm: include}, 0)
		if st.Scanned > 1<<14 {
			t.Errorf("settop(include=%v): visited %d nodes, want <= %d", include, st.Scanned, 1<<14)
		}
	}

	scaled := models.Synthetic(models.ScaledSynthetic(1, 30))
	if n := len(Units(scaled)); n != 30 {
		t.Fatalf("scaled spec has %d units, want 30", n)
	}
	emitted := 0
	st := EnumerateSymbolic(scaled, Options{}, func(Candidate) bool {
		emitted++
		return emitted < 4096
	})
	if emitted != 4096 {
		t.Fatalf("emitted %d candidates, want 4096 (the spec must admit at least that many)", emitted)
	}
	if limit := (1 << 30) / 10; st.Scanned >= limit {
		t.Errorf("30-unit prefix visited %d nodes, want < %d (10x below 2^30)", st.Scanned, limit)
	}
	t.Logf("30-unit 4096-candidate prefix: visited %d BDD nodes (2^30 = %d)", st.Scanned, 1<<30)
}

// TestCountPossibleBig: the big count matches the float64 one on small
// universes and stays exact on universes past float64 integer range.
func TestCountPossibleBig(t *testing.T) {
	for name, s := range map[string]*spec.Spec{"fig2": buildFig2(t), "settop": models.SetTopBox()} {
		want := int64(CountPossible(s))
		if got := CountPossibleBig(s); got.Cmp(big.NewInt(want)) != 0 {
			t.Errorf("%s: CountPossibleBig = %v, want %d", name, got, want)
		}
	}
}
