package core

import (
	"reflect"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/models"
	"repro/internal/spec"
)

// cacheSpecs are the differential subjects: every spec must produce,
// through the evaluation caches, the front and the semantic counters of
// the uncached reference (referenceExplore).
func cacheSpecs() map[string]*spec.Spec {
	return map[string]*spec.Spec{
		"settop":    models.SetTopBox(),
		"decoder":   models.Decoder(),
		"synthetic": models.Synthetic(models.DefaultSynthetic(7)),
	}
}

func diffAgainstReference(t *testing.T, name string, cached, ref *Result) {
	t.Helper()
	if !frontsEqual(cached.Front, ref.Front) {
		t.Errorf("%s: cached front differs from the reference front", name)
	}
	if !reflect.DeepEqual(cached.Stats.Semantic(), ref.Stats.Semantic()) {
		t.Errorf("%s: semantic counters diverge:\ncached    %+v\nreference %+v",
			name, cached.Stats, ref.Stats)
	}
}

func TestCacheDifferentialExplore(t *testing.T) {
	for name, s := range cacheSpecs() {
		cached := Explore(s, Options{})
		ref := referenceExplore(s, Options{})
		diffAgainstReference(t, name, cached, ref)
		if c := cached.Stats.Cache; c.FlattenHits == 0 || c.ArchFlattenHits == 0 {
			t.Errorf("%s: caches never engaged: %+v", name, c)
		}
		// The caches reuse flattenings and configurations, not verdicts:
		// every binding decision is one solve, as in the reference.
		if cached.Stats.BindingRuns != ref.Stats.BindingRuns || cached.Stats.BindingNodes != ref.Stats.BindingNodes {
			t.Errorf("%s: cached run solved %d bindings (%d nodes), the reference %d (%d)", name,
				cached.Stats.BindingRuns, cached.Stats.BindingNodes, ref.Stats.BindingRuns, ref.Stats.BindingNodes)
		}
	}
}

func TestCacheDifferentialWeighted(t *testing.T) {
	s := models.SetTopBox()
	opts := Options{Weighted: true}
	diffAgainstReference(t, "settop/weighted", Explore(s, opts), referenceExplore(s, opts))
}

func TestCacheDifferentialExhaustive(t *testing.T) {
	s := models.SetTopBox()
	opts := Options{DisableFlexBound: true, IncludeUselessComm: true}
	diffAgainstReference(t, "settop/exhaustive", Explore(s, opts), referenceExplore(s, opts))
}

// TestCacheDifferentialBoundedSolver: with MaxBindNodes the solver is
// truncation-bounded and feasibility is no longer monotone in the
// present resources; the cached run still agrees with the reference bit
// for bit.
func TestCacheDifferentialBoundedSolver(t *testing.T) {
	s := models.SetTopBox()
	opts := Options{MaxBindNodes: 8}
	diffAgainstReference(t, "settop/bounded", Explore(s, opts), referenceExplore(s, opts))
}

// TestCacheDifferentialUnderFaultInjection: an injected per-candidate
// error skips the same candidate in the cached run and the reference;
// the fronts and diagnostics must continue to agree.
func TestCacheDifferentialUnderFaultInjection(t *testing.T) {
	s := models.SetTopBox()
	opts := func() Options {
		return Options{Fault: faultinject.New().ErrorAt(SiteEstimate, 40, nil)}
	}
	cached, ref := Explore(s, opts()), referenceExplore(s, opts())
	diffAgainstReference(t, "settop/fault", cached, ref)
	if len(cached.Stats.Diags) != 1 || len(ref.Stats.Diags) != 1 {
		t.Fatalf("want one injected diag in each run, got %d cached / %d reference",
			len(cached.Stats.Diags), len(ref.Stats.Diags))
	}
	if !reflect.DeepEqual(cached.Stats.Diags, ref.Stats.Diags) {
		t.Errorf("diags diverge: %+v vs %+v", cached.Stats.Diags, ref.Stats.Diags)
	}
}

// TestCacheSharedAcrossWorkers: many workers hammer one shared evaluator
// (run under -race to check the interning caches and their single-flight
// construction)
// and the front must still match the uncached sequential reference.
func TestCacheSharedAcrossWorkers(t *testing.T) {
	for name, s := range cacheSpecs() {
		par := ExploreParallel(s, Options{}, 8, 16)
		ref := referenceExplore(s, Options{})
		if !frontsEqual(par.Front, ref.Front) {
			t.Errorf("%s: parallel cached front differs from the sequential reference front", name)
		}
	}
}

// TestCacheCountersAccounting: the counters surfaced in Stats must add
// up — the Estimate→Implement handoff reuses one supportable set per
// attempt, and the interners report their constructions.
func TestCacheCountersAccounting(t *testing.T) {
	s := models.SetTopBox()
	r := Explore(s, Options{})
	c := r.Stats.Cache
	if c.SupportableReused != r.Stats.Attempted {
		t.Errorf("supportable sets reused %d != attempted implementations %d",
			c.SupportableReused, r.Stats.Attempted)
	}
	if c.FlattenMisses <= 0 || c.ArchFlattenMisses <= 0 {
		t.Errorf("interners report no construction at all: %+v", c)
	}
}
