package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/hgraph"
	"repro/internal/models"
	"repro/internal/spec"
)

// setupSpecs are the specifications the set-up tests run on.
func setupSpecs() map[string]*spec.Spec {
	specs := map[string]*spec.Spec{
		"settop":  models.SetTopBox(),
		"sdr":     models.SDR(),
		"decoder": models.Decoder(),
		"wide":    models.Synthetic(models.ScaledSynthetic(1, 22)),
	}
	for seed := int64(1); seed <= 7; seed++ {
		specs[fmt.Sprint("synthetic", seed)] = models.Synthetic(models.DefaultSynthetic(seed))
	}
	return specs
}

// TestMaxFlexibilityIndexed: the maximum flexibility a run computes on
// its own Supporter and cluster tree equals the map-based
// MaxFlexibility, weighted and unweighted, to the bit; one Set-Top box
// carries fractional cluster weights.
func TestMaxFlexibilityIndexed(t *testing.T) {
	specs := setupSpecs()
	weighted := models.SetTopBox()
	for i, c := range weighted.Problem.Clusters() {
		c.Attrs = hgraph.Attrs{spec.AttrWeight: 1 + float64(i%3)/3}
	}
	specs["settop-weighted"] = weighted
	for name, s := range specs {
		for _, weighted := range []bool{false, true} {
			opts := Options{Weighted: weighted}
			ev := newEvaluator(s, opts)
			if got, want := ev.maxFlexibility(ev.sup.NewScratch()), MaxFlexibility(s, opts); got != want {
				t.Errorf("%s weighted=%v: indexed maximum flexibility %v, MaxFlexibility %v", name, weighted, got, want)
			}
		}
	}
}

// TestNewScanAllocs pins what a run's set-up from its specification
// allocates: newScan builds the unit table, the Supporter with its bus
// adjacency, the cluster tree, the architecture space, the evaluator's
// unit tables and the scan's scratch, and computes MaxFlexibility, with
// every resource set of the Supporter carved out of one slab and every
// list of the architecture space out of one slab per kind. (Before the
// architecture space's lists shared slabs: 118 and 106.)
func TestNewScanAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		s    *spec.Spec
		max  float64
	}{
		{"settop", models.SetTopBox(), 109},
		{"wide", models.Synthetic(models.ScaledSynthetic(1, 22)), 100},
	} {
		opts := Options{StopAtMaxFlex: true}
		if got := testing.AllocsPerRun(20, func() { newScan(context.Background(), c.s, opts) }); got > c.max {
			t.Errorf("%s: newScan allocates %v times, want at most %v", c.name, got, c.max)
		}
	}
}
