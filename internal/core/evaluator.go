package core

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"repro/internal/alloc"
	"repro/internal/bind"
	"repro/internal/bitset"
	"repro/internal/cover"
	"repro/internal/flex"
	"repro/internal/hgraph"
	"repro/internal/spec"
)

// evaluator is the per-run candidate-evaluation engine behind the
// explorers. It carries the three caches the cost-ordered scan can
// exploit across candidates:
//
//   - interned problem flattenings keyed by the canonical ECS
//     selection, so each elementary cluster activation is flattened
//     once per run instead of once per (candidate × ECS);
//   - interned architecture flattenings keyed by the canonical
//     architecture selection, for the same reason;
//   - a binding memo keyed by (ECS selection, architecture selection)
//     holding, per present-resource set, the solver outcome, with a
//     monotone-dominance rule: a binding found feasible under a
//     resource set stays feasible under any superset (extra resources
//     only add present vertices and links, and the timing tests depend
//     only on the binding itself), so it is replayed — and verified
//     with bind.Check — instead of rerun; an ECS proven infeasible on
//     a resource superset (by an untruncated search) is skipped on any
//     subset.
//
// The feasible-superset replay is gated on Options.MaxBindNodes == 0:
// a truncated search is not monotone (a larger search space can
// truncate before finding the solution the smaller one found), so with
// a node bound only exact-key hits — deterministic replays of the very
// same inputs — are reused, and infeasible-by-truncation outcomes are
// never used as dominance proofs.
//
// On top of the caches, the evaluator keeps cluster/activation/resource
// sets as dense bitsets (internal/bitset) over per-run indexers instead
// of map[hgraph.ID]bool, cutting the per-candidate allocation count.
//
// All caches are sharded and mutex-striped, so one evaluator is shared
// by the parallel explorer's workers; counters are atomics, folded into
// Stats.Cache at progress emissions and on completion.
//
// With Options.DisableCache the evaluator degrades to the exported
// Implement/Estimate functions — the uncached reference the
// differential tests compare against.
type evaluator struct {
	s      *spec.Spec
	opts   Options
	legacy bool

	sup *alloc.Supporter

	flats *shardMap // ECS selection string -> *flatSlot
	archs *shardMap // arch selection string -> *flatSlot
	binds *shardMap // ECS key + "\x00" + arch key -> *bindMemo
	ecss  *shardMap // supportable-set key -> *ecsSlot
	views *shardMap // arch key + "\x00" + present key -> *viewSlot

	base CacheStats // counters carried over from Options.Resume

	flattenHits    atomic.Int64
	flattenMisses  atomic.Int64
	archHits       atomic.Int64
	archMisses     atomic.Int64
	bindExactHits  atomic.Int64
	bindReplayHits atomic.Int64
	bindInfeasHits atomic.Int64
	bindMisses     atomic.Int64
	supportReused  atomic.Int64
}

// newEvaluator builds the evaluation engine for one exploration run.
func newEvaluator(s *spec.Spec, opts Options) *evaluator {
	ev := &evaluator{s: s, opts: opts, legacy: opts.DisableCache}
	if ev.legacy {
		return ev
	}
	ev.sup = alloc.NewSupporter(s)
	ev.flats = newShardMap()
	ev.archs = newShardMap()
	ev.binds = newShardMap()
	ev.ecss = newShardMap()
	ev.views = newShardMap()
	if opts.Resume != nil {
		ev.base = opts.Resume.Stats.Cache
	}
	return ev
}

// snapshot reads the atomic counters into a CacheStats.
func (ev *evaluator) snapshot() CacheStats {
	return CacheStats{
		FlattenHits:        int(ev.flattenHits.Load()),
		FlattenMisses:      int(ev.flattenMisses.Load()),
		ArchFlattenHits:    int(ev.archHits.Load()),
		ArchFlattenMisses:  int(ev.archMisses.Load()),
		BindExactHits:      int(ev.bindExactHits.Load()),
		BindReplayHits:     int(ev.bindReplayHits.Load()),
		BindInfeasibleHits: int(ev.bindInfeasHits.Load()),
		BindMisses:         int(ev.bindMisses.Load()),
		SupportableReused:  int(ev.supportReused.Load()),
	}
}

// fold publishes the cache counters (continued from any Resume base)
// into the run's stats. Safe to call repeatedly; the counters are
// cumulative.
func (ev *evaluator) fold(st *Stats) {
	if ev.legacy {
		return
	}
	st.Cache = ev.base.plus(ev.snapshot())
}

// estimate computes the flexibility estimation for an allocation and
// returns the supportable-cluster set alongside, so the caller can hand
// it to implement and avoid the historical double computation. The
// boolean reports whether the set is valid (false on the legacy path).
func (ev *evaluator) estimate(a spec.Allocation) (float64, bitset.Set, bool) {
	if ev.legacy {
		return Estimate(ev.s, a, ev.opts), bitset.Set{}, false
	}
	sup := ev.sup.SupportableOf(a)
	return ev.flexOfBits(sup), sup, true
}

func (ev *evaluator) flexOfBits(set bitset.Set) float64 {
	act := flex.FromBits(set, ev.sup.Clusters)
	if ev.opts.Weighted {
		return flex.WeightedFlexibility(ev.s.Problem, act)
	}
	return flex.Flexibility(ev.s.Problem, act)
}

// implement is Implement through the caches. sup is the supportable set
// computed by estimate (haveSup false when the caller has none, e.g.
// the sampling explorers, which skip estimation). Search effort is
// added to stats, which must not be nil.
func (ev *evaluator) implement(a spec.Allocation, sup bitset.Set, haveSup bool, stats *Stats) *Implementation {
	if ev.legacy {
		return Implement(ev.s, a, ev.opts, stats)
	}
	if haveSup {
		ev.supportReused.Add(1)
	} else {
		sup = ev.sup.SupportableOf(a)
	}
	avail := ev.sup.AvailOf(a)
	cix := ev.sup.Clusters
	rix := ev.sup.Resources

	feasible := bitset.New(cix.Len())
	var behaviours []Behaviour

	// Architecture configurations, through the interned flattenings.
	type viewEntry struct {
		av         *spec.ArchView
		key        string
		present    bitset.Set
		presentKey string
	}
	var views []viewEntry
	a.EnumerateArchSelections(ev.s, func(sel hgraph.Selection) bool {
		key := sel.String()
		fg, ok := ev.archFlat(key, sel)
		if !ok {
			return true
		}
		present := bitset.New(rix.Len())
		for _, v := range fg.Vertices {
			if i, ok := rix.Index(v.ID); ok && avail.Has(i) {
				present.Add(i)
			}
		}
		presentKey := present.Key()
		views = append(views, viewEntry{
			av:         ev.viewFor(key+"\x00"+presentKey, fg, present, sel),
			key:        key,
			present:    present,
			presentKey: presentKey,
		})
		return true
	})

	tested := 0
	maxECS := ev.opts.maxECS()
	list := ev.ecsList(sup)
	for i := range list {
		en := &list[i]
		tested++
		// Novelty: skip an ECS whose clusters are all covered already
		// (unless every behaviour is wanted).
		if !ev.opts.AllBehaviours && en.bits.SubsetOf(feasible) {
			if tested >= maxECS {
				break
			}
			continue
		}
		stats.ECSTested++
		if !en.fpok {
			if tested >= maxECS {
				break
			}
			continue
		}
		for _, ve := range views {
			b, ok := ev.bindFor(en.key, ve.key, ve.present, ve.presentKey, en.fp, ve.av, stats)
			if ok {
				feasible.UnionWith(en.bits)
				behaviours = append(behaviours, Behaviour{
					ECS: en.e, ArchSelection: ve.av.Selection, Binding: b,
				})
				break
			}
		}
		if tested >= maxECS {
			break
		}
	}

	implemented := flex.ActivatableSet(ev.s.Problem, feasible, cix)
	f := ev.flexOfBits(implemented)
	if f <= 0 {
		return nil
	}
	clusters := cix.IDs(implemented)
	kept := behaviours[:0]
	for _, b := range behaviours {
		all := true
		for _, c := range b.ECS.Clusters {
			if i, ok := cix.Index(c); !ok || !implemented.Has(i) {
				all = false
				break
			}
		}
		if all {
			kept = append(kept, b)
		}
	}
	return &Implementation{
		Allocation:  a.Clone(),
		Cost:        a.Cost(ev.s),
		Flexibility: f,
		Clusters:    clusters,
		Behaviours:  kept,
	}
}

// ecsEntry is one elementary cluster activation of a supportable set,
// with everything the per-candidate loop needs precomputed: the
// canonical selection key, the activated-cluster bitset, and the
// interned problem flattening.
type ecsEntry struct {
	e    cover.ECS
	key  string
	bits bitset.Set
	fp   *hgraph.FlatGraph
	fpok bool
}

// ecsSlot interns the ECS enumeration of one supportable-cluster set.
type ecsSlot struct {
	once sync.Once
	list []ecsEntry
}

// ecsList returns the interned ECS enumeration for a supportable set.
// The enumeration order is deterministic in the set, so candidates with
// equal supportable sets iterate byte-identical lists — the cover walk,
// the selection keys and the cluster bitsets are paid once per distinct
// set instead of once per candidate. The entries are shared and must be
// treated as read-only.
func (ev *evaluator) ecsList(sup bitset.Set) []ecsEntry {
	v, _ := ev.ecss.getOrCreate(sup.Key(), func() any { return &ecsSlot{} })
	slot := v.(*ecsSlot)
	slot.once.Do(func() {
		cix := ev.sup.Clusters
		cover.EnumerateFunc(ev.s.Problem, func(id hgraph.ID) bool {
			i, ok := cix.Index(id)
			return ok && sup.Has(i)
		}, func(e cover.ECS) bool {
			en := ecsEntry{e: e, key: e.Selection.String(), bits: bitset.New(cix.Len())}
			for _, c := range e.Clusters {
				if i, ok := cix.Index(c); ok {
					en.bits.Add(i)
				}
			}
			en.fp, en.fpok = ev.flatProblem(en.key, e.Selection)
			slot.list = append(slot.list, en)
			return true
		})
	})
	return slot.list
}

// viewSlot interns one architecture view.
type viewSlot struct {
	once sync.Once
	av   *spec.ArchView
}

// viewFor returns the interned architecture view for an (architecture
// selection, present-resource set) pair. Distinct allocations frequently
// induce the same present set on a given flattening — resources outside
// the selected design do not change the view — so the adjacency build
// is shared across them.
func (ev *evaluator) viewFor(key string, fg *hgraph.FlatGraph, present bitset.Set, sel hgraph.Selection) *spec.ArchView {
	v, _ := ev.views.getOrCreate(key, func() any { return &viewSlot{} })
	slot := v.(*viewSlot)
	slot.once.Do(func() {
		rix := ev.sup.Resources
		slot.av = ev.s.ArchViewFromFlat(fg, func(id hgraph.ID) bool {
			i, ok := rix.Index(id)
			return ok && present.Has(i)
		}, sel)
	})
	return slot.av
}

// flatSlot interns one flattening; the Once gives single-flight
// construction under concurrent lookups.
type flatSlot struct {
	once sync.Once
	fg   *hgraph.FlatGraph
	ok   bool
}

// flatProblem returns the interned problem flattening for an ECS
// selection, flattening (and precomputing adjacency, for concurrent
// readers) on first use.
func (ev *evaluator) flatProblem(key string, sel hgraph.Selection) (*hgraph.FlatGraph, bool) {
	v, created := ev.flats.getOrCreate(key, func() any { return &flatSlot{} })
	if created {
		ev.flattenMisses.Add(1)
	} else {
		ev.flattenHits.Add(1)
	}
	slot := v.(*flatSlot)
	slot.once.Do(func() {
		if fg, err := ev.s.Problem.Flatten(sel); err == nil {
			fg.Precompute()
			slot.fg, slot.ok = fg, true
		}
	})
	return slot.fg, slot.ok
}

// archFlat returns the interned partial architecture flattening for an
// architecture selection.
func (ev *evaluator) archFlat(key string, sel hgraph.Selection) (*hgraph.FlatGraph, bool) {
	v, created := ev.archs.getOrCreate(key, func() any { return &flatSlot{} })
	if created {
		ev.archMisses.Add(1)
	} else {
		ev.archHits.Add(1)
	}
	slot := v.(*flatSlot)
	slot.once.Do(func() {
		if fg, err := ev.s.Arch.FlattenPartial(sel); err == nil {
			fg.Precompute()
			slot.fg, slot.ok = fg, true
		}
	})
	return slot.fg, slot.ok
}

// bindOutcome is one memoized solver verdict for a present-resource
// set under a fixed (ECS, arch selection) pair.
type bindOutcome struct {
	present bitset.Set
	ok      bool
	binding bind.Binding
	// proof reports the infeasibility was established by an untruncated
	// search and may therefore be used as a subset-dominance proof.
	proof bool
}

// bindMemo collects the outcomes of one (ECS, arch selection) pair.
type bindMemo struct {
	mu         sync.Mutex
	exact      map[string]*bindOutcome
	feasible   []*bindOutcome
	infeasible []*bindOutcome
}

// bindFor decides binding feasibility of the flattened ECS fp on the
// view av through the memo: exact present-set recurrence replays the
// stored verdict; a feasible binding under a subset is replayed and
// verified under the present superset (unbounded solver only); an
// infeasibility proven on a superset dominates the present subset.
// Only on a miss does the solver run, and its outcome is stored.
func (ev *evaluator) bindFor(ecsKey, archKey string, present bitset.Set, presentKey string, fp *hgraph.FlatGraph, av *spec.ArchView, stats *Stats) (bind.Binding, bool) {
	v, _ := ev.binds.getOrCreate(ecsKey+"\x00"+archKey, func() any {
		return &bindMemo{exact: map[string]*bindOutcome{}}
	})
	m := v.(*bindMemo)

	m.mu.Lock()
	if o, ok := m.exact[presentKey]; ok {
		m.mu.Unlock()
		ev.bindExactHits.Add(1)
		if o.ok {
			return o.binding.Clone(), true
		}
		return nil, false
	}
	for _, o := range m.infeasible {
		if o.proof && present.SubsetOf(o.present) {
			m.mu.Unlock()
			ev.bindInfeasHits.Add(1)
			return nil, false
		}
	}
	var replay *bindOutcome
	if ev.opts.MaxBindNodes == 0 {
		for _, o := range m.feasible {
			if o.present.SubsetOf(present) {
				replay = o
				break
			}
		}
	}
	m.mu.Unlock()

	bopts := bind.Options{Timing: ev.opts.Timing, MaxNodes: ev.opts.MaxBindNodes}
	if replay != nil {
		// Monotone dominance: the binding stays feasible when resources
		// are only added. Verify anyway — Check is far cheaper than the
		// solver — and fall back to a full solve if it ever disagrees.
		if bind.Check(ev.s, fp, av, replay.binding, bopts) == nil {
			ev.bindReplayHits.Add(1)
			out := &bindOutcome{present: present, ok: true, binding: replay.binding}
			m.mu.Lock()
			m.exact[presentKey] = out
			m.mu.Unlock()
			return replay.binding.Clone(), true
		}
	}

	ev.bindMisses.Add(1)
	stats.BindingRuns++
	res, ok := bind.Find(ev.s, fp, av, bopts)
	stats.BindingNodes += res.Nodes
	out := &bindOutcome{present: present, ok: ok}
	if ok {
		// Store a private copy: the solver's map goes to the caller's
		// Behaviour, the memo keeps its own.
		out.binding = res.Binding.Clone()
	} else {
		out.proof = !res.Truncated
	}
	m.mu.Lock()
	m.exact[presentKey] = out
	if ok {
		m.feasible = append(m.feasible, out)
	} else if out.proof {
		m.infeasible = append(m.infeasible, out)
	}
	m.mu.Unlock()
	if ok {
		return res.Binding, true
	}
	return nil, false
}

// shardMap is a mutex-striped string-keyed map shared by the parallel
// explorer's workers; striping keeps contention off the hot path.
type shardMap struct {
	seed   maphash.Seed
	shards [32]shard
}

type shard struct {
	mu sync.Mutex
	m  map[string]any
}

func newShardMap() *shardMap {
	sm := &shardMap{seed: maphash.MakeSeed()}
	for i := range sm.shards {
		sm.shards[i].m = map[string]any{}
	}
	return sm
}

// getOrCreate returns the value under key, creating it with mk while
// holding only the shard's lock. The boolean reports creation (a cache
// miss). mk must be cheap; expensive construction belongs behind a
// sync.Once in the stored value.
func (sm *shardMap) getOrCreate(key string, mk func() any) (any, bool) {
	sh := &sm.shards[maphash.String(sm.seed, key)%uint64(len(sm.shards))]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if v, ok := sh.m[key]; ok {
		return v, false
	}
	v := mk()
	sh.m[key] = v
	return v, true
}
