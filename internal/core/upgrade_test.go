package core

import (
	"testing"
	"testing/quick"

	"repro/internal/hgraph"
	"repro/internal/models"
	"repro/internal/spec"
)

// TestUpgradeFromCheapestBox: upgrading the deployed $100 box (uP2,
// f=2) without discarding hardware. The fresh-design front jumps to μP1
// at $120 for f=3, but an upgrade cannot drop uP2; the cheapest f=3
// upgrades instead add one FPGA design plus its bus (+$70) — the
// cost-ordered stream's tie-break surfaces the U2 variant among the
// three equal-cost options.
func TestUpgradeFromCheapestBox(t *testing.T) {
	s := models.SetTopBox()
	r := Upgrade(s, spec.NewAllocation("uP2"), Options{})
	want := [][2]float64{{170, 3}, {230, 4}, {290, 5}, {360, 7}, {430, 8}}
	if len(r.Front) != len(want) {
		t.Fatalf("upgrade front size = %d, want %d: %v", len(r.Front), len(want), r.Front)
	}
	for i, w := range want {
		if r.Front[i].Cost != w[0] || r.Front[i].Flexibility != w[1] {
			t.Errorf("row %d = (%v,%v), want (%v,%v)",
				i, r.Front[i].Cost, r.Front[i].Flexibility, w[0], w[1])
		}
		if !spec.NewAllocation("uP2").Subset(r.Front[i].Allocation) {
			t.Errorf("row %d discards deployed hardware: %v", i, r.Front[i].Allocation)
		}
	}
	// First upgrade adds exactly one design and the bus C1.
	if !r.Front[0].Allocation.Equal(spec.NewAllocation("uP2", "C1", "dU2")) {
		t.Errorf("first upgrade = %v, want {C1 dU2 uP2}", r.Front[0].Allocation)
	}
}

// TestUpgradePreservesBaseBehaviours: every upgrade implements a
// superset of the base implementation's clusters — the guarantee the
// paper notes Pop et al.'s probabilistic approach cannot give.
func TestUpgradePreservesBaseBehaviours(t *testing.T) {
	s := models.SetTopBox()
	base := spec.NewAllocation("uP1")
	baseImpl := Implement(s, base, Options{}, nil)
	if baseImpl == nil {
		t.Fatal("base should implement")
	}
	r := Upgrade(s, base, Options{})
	baseClusters := map[hgraph.ID]bool{}
	for _, c := range baseImpl.Clusters {
		baseClusters[c] = true
	}
	for _, im := range r.Front {
		have := map[hgraph.ID]bool{}
		for _, c := range im.Clusters {
			have[c] = true
		}
		for c := range baseClusters {
			if !have[c] {
				t.Errorf("upgrade %v lost base cluster %s", im, c)
			}
		}
		if im.Flexibility <= baseImpl.Flexibility {
			t.Errorf("upgrade %v does not improve on base f=%g", im, baseImpl.Flexibility)
		}
	}
}

// TestUpgradeFromMaxedOut: upgrading the richest box yields an empty
// front (nothing to gain).
func TestUpgradeFromMaxedOut(t *testing.T) {
	s := models.SetTopBox()
	r := Upgrade(s, spec.NewAllocation("uP2", "A1", "dD3", "C1", "C2"), Options{})
	if len(r.Front) != 0 {
		t.Errorf("no upgrade should exist beyond f=8, got %v", r.Front)
	}
}

// TestUpgradeFromEmptyEqualsExplore: with an empty base, Upgrade
// degenerates to a full exploration: the same front, allocation for
// allocation.
func TestUpgradeFromEmptyEqualsExplore(t *testing.T) {
	s := models.SetTopBox()
	up := Upgrade(s, spec.Allocation{}, Options{})
	ex := Explore(s, Options{})
	if len(up.Front) != len(ex.Front) {
		t.Fatalf("front sizes differ: %d vs %d", len(up.Front), len(ex.Front))
	}
	for i := range ex.Front {
		u, e := up.Front[i], ex.Front[i]
		if u.Cost != e.Cost || u.Flexibility != e.Flexibility || !u.Allocation.Equal(e.Allocation) {
			t.Errorf("row %d = %v, want %v", i, u, e)
		}
	}
}

// Property: on synthetic models, upgrades are supersets of the base and
// monotone in flexibility; the upgrade front never beats the fresh
// front at equal flexibility.
func TestPropUpgradeConsistent(t *testing.T) {
	prop := func(seed int64) bool {
		p := models.SyntheticParams{
			Seed: seed % 40, Apps: 2, Depth: 1, Branch: 2, Vertices: 2,
			Processors: 2, ASICs: 1, Designs: 1, Buses: 2,
			TimedFraction: 0.3, AccelOnlyFraction: 0.3,
		}
		s := models.Synthetic(p)
		base := spec.NewAllocation("uP1")
		baseImpl := Implement(s, base, Options{}, nil)
		if baseImpl == nil {
			return true
		}
		up := Upgrade(s, base, Options{})
		fresh := Explore(s, Options{})
		freshCost := map[float64]float64{} // flexibility -> cheapest cost
		for _, im := range fresh.Front {
			freshCost[im.Flexibility] = im.Cost
		}
		for _, im := range up.Front {
			if !base.Subset(im.Allocation) {
				return false
			}
			if im.Flexibility <= baseImpl.Flexibility {
				return false
			}
			if fc, ok := freshCost[im.Flexibility]; ok && im.Cost < fc {
				return false // upgrade cannot be cheaper than fresh design
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func BenchmarkUpgrade(b *testing.B) {
	s := models.SetTopBox()
	base := spec.NewAllocation("uP2")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := Upgrade(s, base, Options{})
		if len(r.Front) != 5 {
			b.Fatal("wrong upgrade front")
		}
	}
}
