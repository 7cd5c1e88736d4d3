package alloc

import (
	"math/big"
	"math/bits"
	"sort"
	"testing"

	"repro/internal/boolfunc"
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
// than the scan scans. The two sharded-producer names, which now
// forward to the direct producers, must do the same with a Producers
// gauge of 0.
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
	producers := []struct {
		name     string
		symbolic bool
		enum     func(*spec.Spec, Options, int, func(Candidate) bool) Stats
	}{
		{"symbolic", true, EnumerateSymbolicRange},
		{"sharded", false, func(s *spec.Spec, opts Options, start int, fn func(Candidate) bool) Stats {
			return EnumerateShardedRange(s, opts, 2, start, fn)
		}},
		{"symbolic-sharded", true, func(s *spec.Spec, opts Options, start int, fn func(Candidate) bool) Stats {
			return EnumerateSymbolicShardedRange(s, opts, 2, start, fn)
		}},
	}
	for name, s := range specs {
		for _, include := range []bool{false, true} {
			opts := Options{IncludeUselessComm: include}
			bit, bitStats := collect(EnumerateRange, s, opts, 0)
			for _, p := range producers {
				label := name + "/" + p.name
				if include {
					label += "+uselesscomm"
				}
				got, stats := collect(p.enum, s, opts, 0)
				sameCandidates(t, label, bit, got)
				if stats.Possible != bitStats.Possible {
					t.Errorf("%s: Possible = %d, bitset %d", label, stats.Possible, bitStats.Possible)
				}
				if stats.SearchSpace != bitStats.SearchSpace {
					t.Errorf("%s: SearchSpace differs", label)
				}
				if stats.Producers != 0 {
					t.Errorf("%s: Producers = %d, want 0", label, stats.Producers)
				}
				if !p.symbolic {
					continue
				}
				if stats.Scanned > bitStats.Scanned {
					t.Errorf("%s: visited %d nodes, more than the %d subsets the scan needed",
						label, stats.Scanned, bitStats.Scanned)
				}
				if stats.PrunedComm != 0 {
					t.Errorf("%s: PrunedComm = %d, want 0 (rule is in the BDD)", label, stats.PrunedComm)
				}
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

// TestSymbolicVisitBounds pins the symbolic producer's visit counter
// far below the 2^n subsets the bitset scan would pop to reach the same
// stream position.
//
//   - Case study (14 units): the full enumeration — all possible
//     allocations, not a prefix — visits no more than the 2^14 = 16384
//     subsets the scan is pinned to (measured: 4702 with useless buses
//     pruned, 12800 with them included).
//   - Scaled synthetic (30 units): a 4096-candidate cost-ordered prefix
//     takes at most 135021 visits, 5x under the 675105 of the walk
//     keyed by each node's own cost (measured: 13973).
//   - Scaled synthetic (50 units): a 4096-candidate prefix completes
//     within a 100000-visit budget; the walk keyed by own cost ran out
//     of a 3M-visit budget after 4 candidates on the cheap-bus plateau.
func TestSymbolicVisitBounds(t *testing.T) {
	settop := models.SetTopBox()
	for _, include := range []bool{false, true} {
		_, st := collect(EnumerateSymbolicRange, settop, Options{IncludeUselessComm: include}, 0)
		if st.Scanned > 1<<14 {
			t.Errorf("settop(include=%v): visited %d nodes, want <= %d", include, st.Scanned, 1<<14)
		}
	}

	for _, c := range []struct {
		units, maxScan, limit int
	}{
		{units: 30, limit: 135021},
		{units: 50, maxScan: 100000, limit: 100000},
	} {
		scaled := models.Synthetic(models.ScaledSynthetic(1, c.units))
		if n := len(Units(scaled)); n != c.units {
			t.Fatalf("scaled spec has %d units, want %d", n, c.units)
		}
		emitted := 0
		st := EnumerateSymbolic(scaled, Options{MaxScan: c.maxScan}, func(Candidate) bool {
			emitted++
			return emitted < 4096
		})
		if emitted != 4096 || st.BudgetCut {
			t.Fatalf("%d units: emitted %d candidates (budget cut %v), want 4096", c.units, emitted, st.BudgetCut)
		}
		if st.Scanned > c.limit {
			t.Errorf("%d-unit prefix visited %d nodes, want <= %d", c.units, st.Scanned, c.limit)
		}
		t.Logf("%d-unit 4096-candidate prefix: visited %d BDD nodes", c.units, st.Scanned)
	}
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

// TestEnumerateSymbolicUnitsMatchesMaps: the unit-index walk hands out
// exactly the candidates, costs and Stats of the map-building
// EnumerateSymbolicRange and EnumerateExtensions, from the start, from
// mid-stream, and restricted to supersets of a non-empty base.
func TestEnumerateSymbolicUnitsMatchesMaps(t *testing.T) {
	s := models.SetTopBox()
	units := Units(s)
	viaUnits := func(base spec.Allocation, opts Options, start int) ([]Candidate, Stats) {
		var out []Candidate
		stats, _ := EnumerateSymbolicUnits(s, base, opts, start, func(idx []int, cost float64) bool {
			out = append(out, Candidate{Allocation: AllocationOf(units, idx), Cost: cost})
			return true
		})
		return out, stats
	}
	full, _ := collect(EnumerateSymbolicRange, s, Options{}, 0)
	for _, opts := range []Options{{}, {IncludeUselessComm: true}, {MaxScan: 1000}} {
		for _, start := range []int{0, len(full) / 2} {
			want, wantStats := collect(EnumerateSymbolicRange, s, opts, start)
			got, gotStats := viaUnits(nil, opts, start)
			sameCandidates(t, "range", want, got)
			if gotStats != wantStats {
				t.Errorf("opts %+v start %d: Stats %+v, want %+v", opts, start, gotStats, wantStats)
			}
			base := spec.NewAllocation("uP2")
			ext := func(s *spec.Spec, opts Options, start int, fn func(Candidate) bool) Stats {
				return EnumerateExtensions(s, base, opts, start, fn)
			}
			want, wantStats = collect(ext, s, opts, start)
			got, gotStats = viaUnits(base, opts, start)
			if len(want) == 0 && start == 0 {
				t.Fatalf("opts %+v: no extensions of %v", opts, base)
			}
			sameCandidates(t, "extensions", want, got)
			if gotStats != wantStats {
				t.Errorf("extensions opts %+v start %d: Stats %+v, want %+v", opts, start, gotStats, wantStats)
			}
		}
	}
}

// TestBusRuleMatchesApplyChain checks busRule's bottom-up construction
// against "¬x_k ∨ at least two neighbours" composed with Apply as the
// usual one/two accumulation chain, for every bus position among up to
// six neighbours of eight variables: both must be the same node.
func TestBusRuleMatchesApplyChain(t *testing.T) {
	const n = 8
	m := boolfunc.NewManager(n)
	for mask := 0; mask < 1<<n; mask++ {
		for k := 0; k < n; k++ {
			if mask&(1<<k) != 0 || bits.OnesCount(uint(mask)) > 6 {
				continue
			}
			vars := []int{k}
			one, two := m.False(), m.False()
			for j := 0; j < n; j++ {
				if mask&(1<<j) != 0 {
					vars = append(vars, j)
					x := m.Var(j)
					two = m.Apply(boolfunc.Or, two, m.Apply(boolfunc.And, one, x))
					one = m.Apply(boolfunc.Or, one, x)
				}
			}
			sort.Ints(vars)
			want := m.Apply(boolfunc.Or, m.NotVar(k), two)
			if got := busRule(m, k, vars); got != want {
				t.Fatalf("bus %d, neighbours %08b: busRule built node %d, Apply chain %d", k, mask, got, want)
			}
		}
	}
}

// TestWalkLengthCountsWholeStream: a walk stopped by its callback or
// cut by MaxScan still counts its whole stream on request — the
// length an unstopped walk emits — with or without a base and the
// useless-bus rule.
func TestWalkLengthCountsWholeStream(t *testing.T) {
	s := models.SetTopBox()
	for _, base := range []spec.Allocation{nil, spec.NewAllocation("uP2")} {
		for _, opts := range []Options{{}, {IncludeUselessComm: true}} {
			all, _ := EnumerateSymbolicUnits(s, base, opts, 0, func([]int, float64) bool { return true })
			want := all.Possible
			emitted := 0
			stopped := func([]int, float64) bool { emitted++; return emitted < 5 }
			cut := opts
			cut.MaxScan = 10
			for name, walk := range map[string]func() (Stats, func() (int, bool)){
				"stopped": func() (Stats, func() (int, bool)) { return EnumerateSymbolicUnits(s, base, opts, 3, stopped) },
				"cut": func() (Stats, func() (int, bool)) {
					return EnumerateSymbolicUnits(s, base, cut, 0, func([]int, float64) bool { return true })
				},
			} {
				st, length := walk()
				n, ok := length()
				if !ok || n != want || st.Possible >= want {
					t.Errorf("base %v %+v %s: walked %d, length %d (%v), want %d", base, opts, name, st.Possible, n, ok, want)
				}
			}
		}
	}
}

// TestModelCount: the count is exact on both sides of 2^53, where the
// float count stops being exact, and refused when it does not fit in
// an int.
func TestModelCount(t *testing.T) {
	m := boolfunc.NewManager(70)
	// all is the conjunction of variables lo..hi-1.
	all := func(lo, hi int) boolfunc.Node {
		f := m.True()
		for v := lo; v < hi; v++ {
			f = m.Apply(boolfunc.And, f, m.Var(v))
		}
		return f
	}
	for _, c := range []struct {
		name string
		f    boolfunc.Node
		want uint64
		ok   bool
	}{
		{"false", m.False(), 0, true},
		{"2^52", all(0, 18), 1 << 52, true},
		{"2^53-1", m.Apply(boolfunc.And, all(0, 17), m.Not(all(17, 70))), 1<<53 - 1, true},
		{"2^53", all(0, 17), 1 << 53, true},
		{"2^53+2^17-1", m.Apply(boolfunc.Or, all(0, 17), all(17, 70)), 1<<53 + 1<<17 - 1, true},
		{"2^63-1", m.Apply(boolfunc.And, all(0, 7), m.Not(all(7, 70))), 1<<63 - 1, true},
		{"2^63", all(0, 7), 0, false},
		{"2^70", m.True(), 0, false},
	} {
		n, ok := modelCount(m, c.f)
		if ok != c.ok || ok && uint64(n) != c.want {
			t.Errorf("%s: count %d (%v), want %d (%v)", c.name, n, ok, c.want, c.ok)
		}
	}
}
