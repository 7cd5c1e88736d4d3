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
// explorers. It carries the caches the cost-ordered scan can exploit
// across candidates:
//
//   - interned problem flattenings keyed by the canonical ECS
//     selection, so each elementary cluster activation is flattened
//     once per run instead of once per (candidate × ECS);
//   - interned architecture configurations: per set of allocated
//     architecture clusters (a bitset key) the list of configurations
//     EnumerateArchSelections yields, each with its selection and its
//     partial flattening's spec.ArchLinks, so a candidate's view of a
//     configuration is one bitset (its present set, mask ∧ avail);
//   - a binding memo keyed by the run-wide IDs of the (ECS,
//     configuration) pair holding, per present-resource set, the
//     solver outcome, with a monotone-dominance rule: a binding found
//     feasible under a resource set stays feasible under any superset
//     (extra resources only add present vertices and links, and the
//     timing tests depend only on the binding itself), so it is
//     replayed — and verified with bind.Check — instead of rerun; an
//     ECS proven infeasible on a resource superset (by an untruncated
//     search) is skipped on any subset.
//
// The feasible-superset replay is gated on Options.MaxBindNodes == 0:
// a truncated search is not monotone (a larger search space can
// truncate before finding the solution the smaller one found), so with
// a node bound only exact-key hits — deterministic replays of the very
// same inputs — are reused, and infeasible-by-truncation outcomes are
// never used as dominance proofs.
//
// An attempted candidate stays in index space: cluster, activation and
// resource sets are dense bitsets (internal/bitset) over the run's
// cluster indexers and the spec's resource index, and the bindings and architecture selections its
// behaviours carry are the caches' own, shared read-only. Only a front
// admitting the implementation copies them (owned), so the many
// implementations no front keeps cost no map copies.
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

	// units is the unit table the scan's candidate indices refer to.
	units []alloc.Unit
	sup   *alloc.Supporter
	// tree is the problem's cluster hierarchy over sup.Clusters, on
	// which the estimate evaluates Definition 4.
	tree *flex.Indexed
	// archClusters indexes the architecture clusters; configs keys its
	// lists by bitsets over it.
	archClusters *bitset.Indexer[hgraph.ID]

	flats    *shardMap[string, *flatSlot]   // ECS selection string
	archs    *shardMap[string, *archConfig] // arch selection string
	cfgLists *shardMap[string, *configList] // allocated-cluster set key
	binds    *shardMap[uint64, *bindMemo]   // ECS ID << 32 | configuration ID
	ecss     *shardMap[string, *ecsSlot]    // supportable-set key

	nextECS    atomic.Uint32
	nextConfig atomic.Uint32

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
		ev.units = alloc.Units(s)
		return ev
	}
	ev.sup = alloc.NewSupporter(s)
	ev.units = ev.sup.Units
	ev.tree = flex.NewIndexed(s.Problem, ev.sup.Clusters)
	var clusters []hgraph.ID
	for _, c := range s.Arch.Clusters() {
		clusters = append(clusters, c.ID)
	}
	ev.archClusters = bitset.NewIndexer(clusters)
	ev.flats = newStringMap[*flatSlot]()
	ev.archs = newStringMap[*archConfig]()
	ev.cfgLists = newStringMap[*configList]()
	ev.binds = newPairMap[*bindMemo]()
	ev.ecss = newStringMap[*ecsSlot]()
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

// newScratch returns the estimate scratch of one evaluating goroutine
// (nil on the legacy path, which estimates from the allocation map).
func (ev *evaluator) newScratch() *alloc.SupportScratch {
	if ev.legacy {
		return nil
	}
	return ev.sup.NewScratch()
}

// allocation returns candidate r's allocation map, building it from
// r's unit indices on first use.
func (ev *evaluator) allocation(r *candRec) spec.Allocation {
	if r.a == nil {
		r.a = alloc.AllocationOf(ev.units, r.units)
	}
	return r.a
}

// estimate computes the flexibility estimation of candidate r and
// returns the supportable-cluster set alongside, so the caller can hand
// it to implement and avoid the historical double computation. The
// cached path works on r's unit indices in sc and allocates nothing:
// the set is sc's own, valid until sc's next query. The boolean reports
// whether the set is valid; it is false on the legacy path, which
// builds r's allocation map and runs the uncached Estimate.
func (ev *evaluator) estimate(r *candRec, sc *alloc.SupportScratch) (float64, bitset.Set, bool) {
	if ev.legacy {
		return Estimate(ev.s, ev.allocation(r), ev.opts), bitset.Set{}, false
	}
	sup := ev.sup.SupportableUnits(r.units, sc)
	return ev.flexOfBits(sup), sup, true
}

func (ev *evaluator) flexOfBits(set bitset.Set) float64 {
	if ev.opts.Weighted {
		return ev.tree.WeightedFlexibility(set)
	}
	return ev.tree.Flexibility(set)
}

// implement is Implement through the caches. sup is the supportable set
// computed by estimate (haveSup false when the caller has none, e.g.
// the sampling explorers, which skip estimation); implement only reads
// it during the call. The returned implementation keeps a itself, so
// the caller hands over a map it no longer changes. Its behaviours
// share their Binding and ArchSelection maps with the caches: they are
// read-only until a front admits the implementation through owned.
// Search effort is added to stats, which must not be nil.
func (ev *evaluator) implement(a spec.Allocation, sup bitset.Set, haveSup bool, stats *Stats) *Implementation {
	if ev.legacy {
		return Implement(ev.s, a, ev.opts, stats)
	}
	avail := ev.sup.AvailOf(a)
	if haveSup {
		ev.supportReused.Add(1)
	} else {
		sup = ev.sup.Supportable(avail)
	}
	cix := ev.sup.Clusters

	feasible := bitset.New(cix.Len())
	var behaviours []Behaviour

	// The architecture configurations of a's allocated clusters, and
	// each one's view of a, built when a binding first needs it.
	cfgs := ev.configs(a)
	type view struct {
		av  *spec.ArchView
		key string
	}
	views := make([]view, len(cfgs))

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
		if en.fp == nil {
			if tested >= maxECS {
				break
			}
			continue
		}
		for j, c := range cfgs {
			v := &views[j]
			if v.av == nil {
				v.av = c.links.View(c.sel, avail)
				v.key = v.av.PresentSet().Key()
			}
			b, ok := ev.bindFor(en, c, v.av, v.key, stats)
			if ok {
				feasible.UnionWith(en.bits)
				behaviours = append(behaviours, Behaviour{
					ECS: en.e, ArchSelection: c.sel, Binding: b,
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
		Allocation:  a,
		Cost:        a.Cost(ev.s),
		Flexibility: f,
		Clusters:    clusters,
		Behaviours:  kept,
	}
}

// ecsEntry is one elementary cluster activation of a supportable set,
// with everything the per-candidate loop needs precomputed: the
// activated-cluster bitset, the interned problem flattening (nil when
// the selection does not flatten) and its run-wide ID, which keys the
// binding memo.
type ecsEntry struct {
	e    cover.ECS
	id   uint32
	bits bitset.Set
	fp   *hgraph.FlatGraph
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
	slot, _ := ev.ecss.getOrCreate(sup.Key(), func() *ecsSlot { return &ecsSlot{} })
	slot.once.Do(func() {
		cix := ev.sup.Clusters
		cover.EnumerateFunc(ev.s.Problem, func(id hgraph.ID) bool {
			i, ok := cix.Index(id)
			return ok && sup.Has(i)
		}, func(e cover.ECS) bool {
			en := ecsEntry{e: e, bits: bitset.New(cix.Len())}
			for _, c := range e.Clusters {
				if i, ok := cix.Index(c); ok {
					en.bits.Add(i)
				}
			}
			fs := ev.flatProblem(e.Selection)
			en.id, en.fp = fs.id, fs.fg
			slot.list = append(slot.list, en)
			return true
		})
	})
	return slot.list
}

// flatSlot interns one problem flattening under a run-wide ID; the
// Once gives single-flight construction under concurrent lookups. fg
// is nil when the selection does not flatten.
type flatSlot struct {
	once sync.Once
	id   uint32
	fg   *hgraph.FlatGraph
}

// flatProblem returns the interned problem flattening for an ECS
// selection, flattening (and precomputing adjacency, for concurrent
// readers) on first use.
func (ev *evaluator) flatProblem(sel hgraph.Selection) *flatSlot {
	slot, created := ev.flats.getOrCreate(sel.String(), func() *flatSlot {
		return &flatSlot{id: ev.nextECS.Add(1)}
	})
	if created {
		ev.flattenMisses.Add(1)
	} else {
		ev.flattenHits.Add(1)
	}
	slot.once.Do(func() {
		if fg, err := ev.s.Problem.Flatten(sel); err == nil {
			fg.Precompute()
			slot.fg = fg
		}
	})
	return slot
}

// archConfig is one interned architecture configuration: its cluster
// selection, shared by every behaviour bound under it until a front
// admits the behaviour, and its partial flattening's links, on which a
// candidate's view costs one bitset. links is nil when the selection
// does not flatten. id is run-wide and keys the binding memo.
type archConfig struct {
	once  sync.Once
	id    uint32
	sel   hgraph.Selection
	links *spec.ArchLinks
}

// configList interns the architecture configurations of one set of
// allocated architecture clusters, in EnumerateArchSelections order.
// n counts the selections enumerated, flattenable or not.
type configList struct {
	once sync.Once
	list []*archConfig
	n    int
}

// configs returns the interned architecture configurations of a. They
// depend only on a's allocated clusters, so they are looked up by that
// set as a bitset key and enumerated once per distinct set.
func (ev *evaluator) configs(a spec.Allocation) []*archConfig {
	set := bitset.New(ev.archClusters.Len())
	for id := range a {
		if i, ok := ev.archClusters.Index(id); ok {
			set.Add(i)
		}
	}
	l, _ := ev.cfgLists.getOrCreate(set.Key(), func() *configList { return &configList{} })
	built := false
	l.once.Do(func() {
		built = true
		a.EnumerateArchSelections(ev.s, func(sel hgraph.Selection) bool {
			l.n++
			if c := ev.archConfig(sel); c.links != nil {
				l.list = append(l.list, c)
			}
			return true
		})
	})
	if !built {
		// Every configuration of the list is an architecture
		// flattening not recomputed.
		ev.archHits.Add(int64(l.n))
	}
	return l.list
}

// archConfig returns the interned configuration of an architecture
// selection (which the caller may reuse: it is cloned on first use).
func (ev *evaluator) archConfig(sel hgraph.Selection) *archConfig {
	c, created := ev.archs.getOrCreate(sel.String(), func() *archConfig {
		return &archConfig{id: ev.nextConfig.Add(1)}
	})
	if created {
		ev.archMisses.Add(1)
	} else {
		ev.archHits.Add(1)
	}
	c.once.Do(func() {
		c.sel = sel.Clone()
		if fg, err := ev.s.Arch.FlattenPartial(c.sel); err == nil {
			c.links = ev.s.LinksOf(fg)
		}
	})
	return c
}

// bindOutcome is one memoized solver verdict for a present-resource
// set under a fixed (ECS, arch configuration) pair.
type bindOutcome struct {
	present bitset.Set
	ok      bool
	// binding is the solver's own map, shared read-only by every
	// behaviour that replays it.
	binding bind.Binding
	// proof reports the infeasibility was established by an untruncated
	// search and may therefore be used as a subset-dominance proof.
	proof bool
}

// bindMemo collects the outcomes of one (ECS, arch configuration) pair.
type bindMemo struct {
	mu         sync.Mutex
	exact      map[string]*bindOutcome
	feasible   []*bindOutcome
	infeasible []*bindOutcome
}

// bindFor decides binding feasibility of the ECS en under configuration
// c on the view av (whose present set has the key presentKey) through
// the memo: exact present-set recurrence replays the stored verdict; a
// feasible binding under a subset is replayed and verified under the
// present superset (unbounded solver only); an infeasibility proven on
// a superset dominates the present subset. Only on a miss does the
// solver run, and its outcome is stored. The returned binding is the
// memo's: read-only.
func (ev *evaluator) bindFor(en *ecsEntry, c *archConfig, av *spec.ArchView, presentKey string, stats *Stats) (bind.Binding, bool) {
	m, _ := ev.binds.getOrCreate(uint64(en.id)<<32|uint64(c.id), func() *bindMemo {
		return &bindMemo{exact: map[string]*bindOutcome{}}
	})
	present := av.PresentSet()

	m.mu.Lock()
	if o, ok := m.exact[presentKey]; ok {
		m.mu.Unlock()
		ev.bindExactHits.Add(1)
		return o.binding, o.ok
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
		if bind.Check(ev.s, en.fp, av, replay.binding, bopts) == nil {
			ev.bindReplayHits.Add(1)
			out := &bindOutcome{present: present, ok: true, binding: replay.binding}
			m.mu.Lock()
			m.exact[presentKey] = out
			m.mu.Unlock()
			return replay.binding, true
		}
	}

	ev.bindMisses.Add(1)
	stats.BindingRuns++
	res, ok := bind.Find(ev.s, en.fp, av, bopts)
	stats.BindingNodes += res.Nodes
	out := &bindOutcome{present: present, ok: ok, binding: res.Binding}
	if !ok {
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
	return res.Binding, ok
}

// shardMap is a mutex-striped map shared by the parallel explorer's
// workers; striping keeps contention off the hot path.
type shardMap[K comparable, V any] struct {
	hash   func(K) uint64
	shards [32]shard[K, V]
}

type shard[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]V
}

func newShardMap[K comparable, V any](hash func(K) uint64) *shardMap[K, V] {
	sm := &shardMap[K, V]{hash: hash}
	for i := range sm.shards {
		sm.shards[i].m = map[K]V{}
	}
	return sm
}

// newStringMap returns a shardMap over string keys.
func newStringMap[V any]() *shardMap[string, V] {
	seed := maphash.MakeSeed()
	return newShardMap[string, V](func(k string) uint64 { return maphash.String(seed, k) })
}

// newPairMap returns a shardMap over packed pairs of run-wide IDs.
func newPairMap[V any]() *shardMap[uint64, V] {
	return newShardMap[uint64, V](func(k uint64) uint64 { return k * 0x9E3779B97F4A7C15 >> 32 })
}

// getOrCreate returns the value under key, creating it with mk while
// holding only the shard's lock. The boolean reports creation (a cache
// miss). mk must be cheap; expensive construction belongs behind a
// sync.Once in the stored value.
func (sm *shardMap[K, V]) getOrCreate(key K, mk func() V) (V, bool) {
	sh := &sm.shards[sm.hash(key)%uint64(len(sm.shards))]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if v, ok := sh.m[key]; ok {
		return v, false
	}
	v := mk()
	sh.m[key] = v
	return v, true
}
