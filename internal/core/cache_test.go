package core

import (
	"reflect"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/models"
	"repro/internal/spec"
)

// cacheSpecs are the differential subjects: every spec must produce an
// identical front and identical semantic counters with the evaluation
// caches on (the default) and off (the legacy uncached path).
func cacheSpecs() map[string]*spec.Spec {
	return map[string]*spec.Spec{
		"settop":    models.SetTopBox(),
		"decoder":   models.Decoder(),
		"synthetic": models.Synthetic(models.DefaultSynthetic(7)),
	}
}

func diffCachedUncached(t *testing.T, name string, cached, uncached *Result) {
	t.Helper()
	if !frontsEqual(cached.Front, uncached.Front) {
		t.Errorf("%s: cached front differs from uncached front", name)
	}
	if !reflect.DeepEqual(cached.Stats.Semantic(), uncached.Stats.Semantic()) {
		t.Errorf("%s: semantic counters diverge:\ncached   %+v\nuncached %+v",
			name, cached.Stats, uncached.Stats)
	}
	if uncached.Stats.Cache != (CacheStats{}) {
		t.Errorf("%s: uncached run reported cache activity: %+v", name, uncached.Stats.Cache)
	}
}

func TestCacheDifferentialExplore(t *testing.T) {
	for name, s := range cacheSpecs() {
		cached := Explore(s, Options{})
		uncached := Explore(s, Options{DisableCache: true})
		diffCachedUncached(t, name, cached, uncached)
		if c := cached.Stats.Cache; c.BindHits() == 0 || c.FlattenHits == 0 {
			t.Errorf("%s: caches never engaged: %+v", name, c)
		}
		// The solver-effort reduction is the point of the cache layer:
		// every reused binding is a solver run the uncached path pays for.
		if cached.Stats.BindingRuns >= uncached.Stats.BindingRuns {
			t.Errorf("%s: cached run solved %d bindings, uncached %d — memo saved nothing",
				name, cached.Stats.BindingRuns, uncached.Stats.BindingRuns)
		}
	}
}

func TestCacheDifferentialWeighted(t *testing.T) {
	s := models.SetTopBox()
	diffCachedUncached(t, "settop/weighted",
		Explore(s, Options{Weighted: true}),
		Explore(s, Options{Weighted: true, DisableCache: true}))
}

func TestCacheDifferentialExhaustive(t *testing.T) {
	s := models.SetTopBox()
	opts := Options{DisableFlexBound: true, IncludeUselessComm: true}
	off := opts
	off.DisableCache = true
	diffCachedUncached(t, "settop/exhaustive", Explore(s, opts), Explore(s, off))
}

// TestCacheDifferentialBoundedSolver: with MaxBindNodes the solver is
// truncation-bounded and feasibility is no longer monotone, so the memo
// must fall back to exact hits only — and still agree with the
// uncached run bit for bit.
func TestCacheDifferentialBoundedSolver(t *testing.T) {
	s := models.SetTopBox()
	opts := Options{MaxBindNodes: 8}
	off := opts
	off.DisableCache = true
	cached, uncached := Explore(s, opts), Explore(s, off)
	diffCachedUncached(t, "settop/bounded", cached, uncached)
	if c := cached.Stats.Cache; c.BindReplayHits != 0 {
		t.Errorf("replay dominance used under a bounded solver: %+v", c)
	}
}

// TestCacheDifferentialUnderFaultInjection: an injected per-candidate
// error skips the same candidate in both runs; the fronts and diagnostics
// must continue to agree.
func TestCacheDifferentialUnderFaultInjection(t *testing.T) {
	s := models.SetTopBox()
	mk := func(disable bool) *Result {
		return Explore(s, Options{
			DisableCache: disable,
			Fault:        faultinject.New().ErrorAt(SiteEstimate, 40, nil),
		})
	}
	cached, uncached := mk(false), mk(true)
	diffCachedUncached(t, "settop/fault", cached, uncached)
	if len(cached.Stats.Diags) != 1 || len(uncached.Stats.Diags) != 1 {
		t.Fatalf("want one injected diag in each run, got %d cached / %d uncached",
			len(cached.Stats.Diags), len(uncached.Stats.Diags))
	}
	if !reflect.DeepEqual(cached.Stats.Diags, uncached.Stats.Diags) {
		t.Errorf("diags diverge: %+v vs %+v", cached.Stats.Diags, uncached.Stats.Diags)
	}
}

// TestCacheSharedAcrossWorkers: many workers hammer one shared evaluator
// (run under -race to check the striped maps and single-flight interning)
// and the front must still match the uncached sequential reference.
func TestCacheSharedAcrossWorkers(t *testing.T) {
	for name, s := range cacheSpecs() {
		par := ExploreParallel(s, Options{}, 8, 16)
		ref := Explore(s, Options{DisableCache: true})
		if !frontsEqual(par.Front, ref.Front) {
			t.Errorf("%s: parallel cached front differs from sequential uncached front", name)
		}
	}
}

// TestCacheCountersAccounting: the counters surfaced in Stats must add
// up — every binding decision is either a hit or a miss, and the
// Estimate→Implement handoff reuses one supportable set per attempt.
func TestCacheCountersAccounting(t *testing.T) {
	s := models.SetTopBox()
	r := Explore(s, Options{})
	c := r.Stats.Cache
	// Every behaviour test makes at least one binding decision (an ECS may
	// try several arch views), and each decision is either a hit or a miss.
	if got := c.BindHits() + c.BindMisses; got < r.Stats.ECSTested {
		t.Errorf("binding decisions %d (hits %d + misses %d) < behaviours tested %d",
			got, c.BindHits(), c.BindMisses, r.Stats.ECSTested)
	}
	if c.BindMisses != r.Stats.BindingRuns {
		t.Errorf("misses %d != solver runs %d: a miss is exactly one solve", c.BindMisses, r.Stats.BindingRuns)
	}
	if c.SupportableReused != r.Stats.Attempted {
		t.Errorf("supportable sets reused %d != attempted implementations %d",
			c.SupportableReused, r.Stats.Attempted)
	}
	if c.FlattenMisses <= 0 || c.ArchFlattenMisses <= 0 {
		t.Errorf("interners report no construction at all: %+v", c)
	}
}
