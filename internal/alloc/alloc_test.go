package alloc

import (
	"testing"
	"testing/quick"

	"repro/internal/hgraph"
	"repro/internal/spec"
)

// buildFig2 mirrors the Fig. 2-style decoder specification used across
// the library's tests: processor uP, ASIC A, buses C1 (uP↔FPGA) and C2
// (uP↔A), and an FPGA interface with designs dD3 and dU2.
func buildFig2(t testing.TB) *spec.Spec {
	t.Helper()
	pb := hgraph.NewBuilder("problem", "ptop")
	r := pb.Root()
	r.Vertex("PA").Vertex("PC")
	ifD := r.Interface("IfD", hgraph.Port{Name: "in"}, hgraph.Port{Name: "out", Dir: hgraph.Out})
	ifD.Cluster("gD1").Vertex("PD1").Bind("in", "PD1").Bind("out", "PD1")
	ifD.Cluster("gD2").Vertex("PD2").Bind("in", "PD2").Bind("out", "PD2")
	ifD.Cluster("gD3").Vertex("PD3").Bind("in", "PD3").Bind("out", "PD3")
	ifU := r.Interface("IfU", hgraph.Port{Name: "in"}, hgraph.Port{Name: "out", Dir: hgraph.Out})
	ifU.Cluster("gU1").Vertex("PU1").Bind("in", "PU1").Bind("out", "PU1")
	ifU.Cluster("gU2").Vertex("PU2").Bind("in", "PU2").Bind("out", "PU2")
	r.PortEdge("PC", "", "IfD", "in")
	r.PortEdge("IfD", "out", "IfU", "in")
	problem := pb.MustBuild()

	ab := hgraph.NewBuilder("arch", "atop")
	ar := ab.Root()
	ar.Vertex("uP", spec.AttrCost, 50)
	ar.Vertex("A", spec.AttrCost, 100)
	ar.Vertex("C1", spec.AttrCost, 5, spec.AttrComm, 1)
	ar.Vertex("C2", spec.AttrCost, 5, spec.AttrComm, 1)
	fpga := ar.Interface("FPGA", hgraph.Port{Name: "bus"})
	fpga.Cluster("dD3").Vertex("D3", spec.AttrCost, 20).Bind("bus", "D3")
	fpga.Cluster("dU2").Vertex("U2", spec.AttrCost, 20).Bind("bus", "U2")
	ar.Edge("uP", "C1")
	ar.PortEdge("C1", "", "FPGA", "bus")
	ar.Edge("uP", "C2")
	ar.Edge("C2", "A")
	arch := ab.MustBuild()

	return spec.MustNew("fig2", problem, arch, []*spec.Mapping{
		{Process: "PA", Resource: "uP", Latency: 55},
		{Process: "PC", Resource: "uP", Latency: 10},
		{Process: "PD1", Resource: "uP", Latency: 85},
		{Process: "PD1", Resource: "A", Latency: 25},
		{Process: "PD2", Resource: "A", Latency: 35},
		{Process: "PD3", Resource: "D3", Latency: 63},
		{Process: "PU1", Resource: "uP", Latency: 40},
		{Process: "PU1", Resource: "A", Latency: 15},
		{Process: "PU2", Resource: "A", Latency: 29},
		{Process: "PU2", Resource: "U2", Latency: 59},
	})
}

func TestUnits(t *testing.T) {
	s := buildFig2(t)
	us := Units(s)
	wantIDs := []hgraph.ID{"C1", "C2", "dD3", "dU2", "uP", "A"}
	wantCosts := []float64{5, 5, 20, 20, 50, 100}
	if len(us) != len(wantIDs) {
		t.Fatalf("got %d units, want %d", len(us), len(wantIDs))
	}
	for i := range us {
		if us[i].ID != wantIDs[i] || us[i].Cost != wantCosts[i] {
			t.Errorf("unit %d = %s/%v, want %s/%v", i, us[i].ID, us[i].Cost, wantIDs[i], wantCosts[i])
		}
	}
	if !us[0].Comm || us[4].Comm {
		t.Error("Comm flags wrong")
	}
	if len(us[2].Resources) != 1 || us[2].Resources[0] != "D3" {
		t.Errorf("dD3 resources = %v, want [D3]", us[2].Resources)
	}
}

func TestSupportableClusters(t *testing.T) {
	s := buildFig2(t)
	set := SupportableClusters(s, spec.NewAllocation("uP"))
	for _, id := range []hgraph.ID{"ptop", "gD1", "gU1"} {
		if !set[id] {
			t.Errorf("%s should be supportable under {uP}", id)
		}
	}
	for _, id := range []hgraph.ID{"gD2", "gD3", "gU2"} {
		if set[id] {
			t.Errorf("%s must not be supportable under {uP}", id)
		}
	}
	// Without a processor for PA/PC nothing is supportable from the root.
	set2 := SupportableClusters(s, spec.NewAllocation("A"))
	if set2["ptop"] {
		t.Error("root must not be supportable without uP")
	}
	// Full allocation supports everything.
	set3 := SupportableClusters(s, spec.NewAllocation("uP", "A", "dD3", "dU2", "C1", "C2"))
	if len(set3) != 6 {
		t.Errorf("full allocation supports %d clusters, want 6 (root + 3 decryption + 2 uncompression)", len(set3))
	}
}

func TestPossible(t *testing.T) {
	s := buildFig2(t)
	if !Possible(s, spec.NewAllocation("uP")) {
		t.Error("{uP} is a possible resource allocation (decoder via gD1,gU1)")
	}
	if Possible(s, spec.NewAllocation("A", "C2")) {
		t.Error("allocation without uP cannot host PA/PC")
	}
	if Possible(s, spec.Allocation{}) {
		t.Error("empty allocation cannot be possible")
	}
}

// TestEnumerateFig2Supersets reproduces the shape of the paper's Fig. 2
// possible-allocation set: with useless buses kept, A is exactly the
// upward closure of {μP} — all 32 subsets containing μP — and begins
// with μP itself.
func TestEnumerateFig2Supersets(t *testing.T) {
	s := buildFig2(t)
	var first *Candidate
	n := 0
	stats := Enumerate(s, Options{IncludeUselessComm: true}, func(c Candidate) bool {
		if first == nil {
			cl := Candidate{Allocation: c.Allocation.Clone(), Cost: c.Cost}
			first = &cl
		}
		if !c.Allocation["uP"] {
			t.Errorf("possible allocation %v lacks uP", c.Allocation)
		}
		n++
		return true
	})
	if n != 32 {
		t.Errorf("possible allocations = %d, want 2^5 = 32", n)
	}
	if first == nil || first.Allocation.String() != "{uP}" || first.Cost != 50 {
		t.Errorf("first candidate = %v, want {uP} at 50", first)
	}
	if stats.Scanned != 64 {
		t.Errorf("scanned = %d, want 64 (full space)", stats.Scanned)
	}
	if stats.SearchSpace != 64 {
		t.Errorf("SearchSpace = %v, want 64", stats.SearchSpace)
	}
}

func TestEnumerateUselessCommPruning(t *testing.T) {
	s := buildFig2(t)
	seen := map[string]bool{}
	Enumerate(s, Options{}, func(c Candidate) bool {
		seen[c.Allocation.String()] = true
		return true
	})
	// C1 without any FPGA design is useless; C2 without A is useless.
	if seen["{C1 uP}"] {
		t.Error("{C1 uP} should be pruned (bus connects only one unit)")
	}
	if seen["{C2 uP}"] {
		t.Error("{C2 uP} should be pruned")
	}
	if !seen["{C1 dD3 uP}"] {
		t.Error("{C1 dD3 uP} should survive")
	}
	if !seen["{A C2 uP}"] {
		t.Error("{A C2 uP} should survive")
	}
	// 21 subsets of the uP-closure satisfy both bus constraints.
	if len(seen) != 21 {
		t.Errorf("possible+useful allocations = %d, want 21", len(seen))
	}
}

func TestEnumerateCostOrder(t *testing.T) {
	s := buildFig2(t)
	prev := -1.0
	Enumerate(s, Options{IncludeUselessComm: true}, func(c Candidate) bool {
		if c.Cost < prev {
			t.Errorf("cost order violated: %v after %v", c.Cost, prev)
		}
		prev = c.Cost
		if got := c.Allocation.Cost(s); got != c.Cost {
			t.Errorf("reported cost %v != computed %v for %v", c.Cost, got, c.Allocation)
		}
		return true
	})
}

func TestEnumerateEarlyStopAndMaxScan(t *testing.T) {
	s := buildFig2(t)
	n := 0
	Enumerate(s, Options{}, func(Candidate) bool {
		n++
		return false
	})
	if n != 1 {
		t.Errorf("early stop yielded %d, want 1", n)
	}
	stats := Enumerate(s, Options{MaxScan: 10}, func(Candidate) bool { return true })
	if stats.Scanned > 10 {
		t.Errorf("MaxScan exceeded: %d", stats.Scanned)
	}
}

func TestAll(t *testing.T) {
	s := buildFig2(t)
	cands, stats := All(s, Options{IncludeUselessComm: true})
	if len(cands) != 32 || stats.Possible != 32 {
		t.Errorf("All = %d candidates (stats %d), want 32", len(cands), stats.Possible)
	}
	// Materialized allocations are independent copies.
	cands[0].Allocation["X"] = true
	if cands[1].Allocation["X"] {
		t.Error("allocations share storage")
	}
}

// Property: the heap-based subset enumeration generates every subset of
// the unit set exactly once and in nondecreasing cost order.
func TestPropSubsetEnumeration(t *testing.T) {
	s := buildFig2(t)
	prop := func(_ int64) bool {
		seen := map[string]int{}
		prev := -1.0
		ok := true
		Enumerate(s, Options{IncludeUselessComm: true}, func(c Candidate) bool {
			seen[c.Allocation.String()]++
			if c.Cost < prev {
				ok = false
			}
			prev = c.Cost
			return true
		})
		for _, n := range seen {
			if n != 1 {
				return false
			}
		}
		return ok && len(seen) == 32
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3}); err != nil {
		t.Error(err)
	}
}

// Property: every yielded allocation is possible, and supersets of a
// possible allocation are possible too (upward closure).
func TestPropPossibleUpwardClosed(t *testing.T) {
	s := buildFig2(t)
	units := Units(s)
	prop := func(seed int64) bool {
		a := spec.Allocation{}
		bits := seed
		for _, u := range units {
			if bits&1 == 1 {
				a[u.ID] = true
			}
			bits >>= 1
		}
		if !Possible(s, a) {
			return true
		}
		// add any one missing unit: still possible
		for _, u := range units {
			if !a[u.ID] {
				b := a.Clone()
				b[u.ID] = true
				if !Possible(s, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEnumerate(b *testing.B) {
	s := buildFig2(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Enumerate(s, Options{}, func(Candidate) bool { return true })
	}
}

func BenchmarkPossible(b *testing.B) {
	s := buildFig2(b)
	a := spec.NewAllocation("uP", "A", "C1", "C2", "dD3")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !Possible(s, a) {
			b.Fatal("should be possible")
		}
	}
}

// TestEnumerateAgainstBruteForce: the bitset-native possibility and
// useless-bus tests inside Enumerate agree with the exported map-based
// references (Possible, hasUselessComm) on every one of the 2^n unit
// subsets of the Fig. 2 model, with and without the bus pruning — the
// two code paths may never drift apart.
func TestEnumerateAgainstBruteForce(t *testing.T) {
	s := buildFig2(t)
	units := Units(s)
	adj := commAdjacency(s, units)
	for _, include := range []bool{true, false} {
		want := map[string]float64{}
		for mask := 0; mask < 1<<len(units); mask++ {
			a := spec.Allocation{}
			var idx []int
			cost := 0.0
			for k, u := range units {
				if mask>>k&1 == 1 {
					a[u.ID] = true
					idx = append(idx, k)
					cost += u.Cost
				}
			}
			if !include && hasUselessComm(units, idx, a, adj) {
				continue
			}
			if Possible(s, a) {
				want[a.String()] = cost
			}
		}
		got := map[string]float64{}
		Enumerate(s, Options{IncludeUselessComm: include}, func(c Candidate) bool {
			got[c.Allocation.String()] = c.Cost
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("include=%v: enumerated %d candidates, brute force says %d",
				include, len(got), len(want))
		}
		for k, cost := range want {
			if gc, ok := got[k]; !ok || gc != cost {
				t.Errorf("include=%v: %s missing or cost %v != %v", include, k, gc, cost)
			}
		}
	}
}

// TestEnumerateRangeSuffix: EnumerateRange(start) delivers exactly the
// suffix of the full enumeration from the start-th possible candidate,
// with identical statistics — the skipped prefix is still scanned and
// counted, just never materialized.
func TestEnumerateRangeSuffix(t *testing.T) {
	s := buildFig2(t)
	var all []Candidate
	full := Enumerate(s, Options{}, func(c Candidate) bool {
		all = append(all, Candidate{Allocation: c.Allocation.Clone(), Cost: c.Cost})
		return true
	})
	if len(all) < 3 {
		t.Fatalf("model too small: %d possible", len(all))
	}
	for _, start := range []int{0, 1, len(all) / 2, len(all) - 1, len(all), len(all) + 5} {
		var got []Candidate
		st := EnumerateRange(s, Options{}, start, func(c Candidate) bool {
			got = append(got, Candidate{Allocation: c.Allocation.Clone(), Cost: c.Cost})
			return true
		})
		if st != full {
			t.Errorf("start=%d: stats %+v != full scan's %+v", start, st, full)
		}
		wantLen := len(all) - start
		if wantLen < 0 {
			wantLen = 0
		}
		if len(got) != wantLen {
			t.Fatalf("start=%d: %d candidates, want %d", start, len(got), wantLen)
		}
		for i, c := range got {
			want := all[start+i]
			if c.Cost != want.Cost || !c.Allocation.Equal(want.Allocation) {
				t.Errorf("start=%d, item %d: %v ($%g) != %v ($%g)",
					start, i, c.Allocation, c.Cost, want.Allocation, want.Cost)
			}
		}
	}
}

// TestEnumerateRangeEarlyStop: stopping inside the range keeps the
// stats consistent (Scanned reflects only what was generated).
func TestEnumerateRangeEarlyStop(t *testing.T) {
	s := buildFig2(t)
	n := 0
	EnumerateRange(s, Options{}, 2, func(c Candidate) bool {
		n++
		return false
	})
	if n != 1 {
		t.Fatalf("callback ran %d times after stop, want 1", n)
	}
}

// hasUselessComm reports whether the allocation contains a bus unit
// that connects fewer than two allocated functional units.
func hasUselessComm(units []Unit, idx []int, a spec.Allocation, adj map[hgraph.ID]map[hgraph.ID]bool) bool {
	for _, k := range idx {
		u := units[k]
		if !u.Comm {
			continue
		}
		n := 0
		for other := range adj[u.ID] {
			if a[other] {
				n++
			}
		}
		if n < 2 {
			return true
		}
	}
	return false
}
