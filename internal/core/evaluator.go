package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/alloc"
	"repro/internal/bind"
	"repro/internal/bitset"
	"repro/internal/cover"
	"repro/internal/flex"
	"repro/internal/hgraph"
	"repro/internal/pareto"
	"repro/internal/spec"
)

// evaluator is the per-run candidate-evaluation engine behind the
// explorers. It carries the caches the cost-ordered scan can exploit
// across candidates:
//
//   - one table of the problem's elementary cluster activations,
//     enumerated once per run on the run's spec.ProblemSpace: per ECS
//     its cluster bitset and its binding problem, built in index space
//     over the space's shared leaf table when a list first holds it. A
//     supportable set's ECS list is the entries whose clusters the set
//     holds, in table order, interned by the set, so an ECS is
//     enumerated and prepared once per run, not once per set. An
//     entry's cover.ECS (selection map and cluster IDs) is built only
//     when a front first outputs it;
//   - interned architecture configurations: per set of allocated
//     architecture clusters (a bitset key) the list of configurations
//     the run's spec.ArchSpace enumerates in EnumerateArchSelections
//     order, each interned by its selected-cluster bitset with its
//     selection map and its spec.ArchLinks, both built once, in index
//     space, so a candidate's view of a configuration is one bitset (its
//     present set, mask ∧ avail).
//
// A binding decision, one (ECS, configuration) pair under a candidate's
// view, is one solve: bindAll runs the solver on the view and keeps
// nothing of the verdict past the candidate. When a front admits an
// attempt, materialise solves each behaviour's witness afresh on the
// allocation's view, so a behaviour's binding is the solver's first
// binding on the present set it is bound under — a function of the
// allocation and the options, not of which candidates or workers came
// before.
//
// An attempted candidate stays in index space: cluster, activation and
// resource sets are dense bitsets (internal/bitset) over the run's
// cluster indexers and the spec's resource index, each ECS's binding
// problem is a bind.Problem whose bindings are []int32 resource
// indices, and the attempt records its cost, its flexibility
// and the (ECS, configuration) picks behind it, in the implementing
// goroutine's scratch. Only a front admitting the attempt builds the
// Implementation (materialise): the implemented clusters, the
// allocation map, and behaviours with private Binding and ArchSelection
// maps and their witness bindings. The many attempts no front admits
// allocate nothing once the caches hold their lists, since admit tests
// the objective vector against the front before it builds an entry.
//
// Each interning cache is one map behind one mutex, and the ECS table,
// each entry's problem and ECS and each configuration are built behind
// a sync.Once, so one evaluator is shared by the parallel explorer's
// workers; counters are atomics, folded into Stats.Cache at progress
// emissions and on completion.
//
// The exported Implement runs a fresh evaluator on one allocation, and
// ImplementAll one evaluator over a list (implementAll). The tests'
// reference is the uncached construction on allocation maps
// (oracle_test.go).
type evaluator struct {
	s    *spec.Spec
	opts Options

	// units is the unit table the scan's candidate indices refer to.
	units []alloc.Unit
	sup   *alloc.Supporter
	// root is the problem root's index in sup.Clusters: a candidate is
	// possible iff its supportable set holds it.
	root int
	// tree is the problem's cluster hierarchy over sup.Clusters, on
	// which the estimate evaluates Definition 4.
	tree *flex.Indexed
	// arch is the architecture graph in index space; configs keys its
	// lists by bitsets over arch.Clusters. unitCluster holds per unit its
	// index in arch.Clusters (-1 for a leaf unit).
	arch        *spec.ArchSpace
	unitCluster []int
	// unitTerms holds per unit the cost terms spec.Allocation.Cost adds
	// for its ID, and unitRank the unit's position in ID order, so a
	// candidate's cost is the same sum in the same order.
	unitTerms [][]float64
	unitRank  []int

	archs    cache[*archConfig] // selected-cluster set key
	cfgLists cache[*configList] // allocated-cluster set key
	ecss     cache[[]*ecsEntry] // supportable-set key

	// table holds the problem's elementary cluster activations,
	// enumerated once (ecsTable) on problems, the problem graph's layout
	// over sup's cluster index, which the same Once builds.
	tableOnce sync.Once
	problems  *spec.ProblemSpace
	table     []ecsEntry

	base CacheStats // counters carried over from Options.Resume

	flattenHits   atomic.Int64
	flattenMisses atomic.Int64
	archHits      atomic.Int64
	archMisses    atomic.Int64
	supportReused atomic.Int64
}

// newEvaluator builds the evaluation engine for one exploration run.
func newEvaluator(s *spec.Spec, opts Options) *evaluator {
	ev := &evaluator{s: s, opts: opts, sup: alloc.NewSupporter(s)}
	ev.units = ev.sup.Units
	ev.root, _ = ev.sup.Clusters.Index(s.Problem.Root.ID)
	ev.unitTerms = make([][]float64, len(ev.units))
	ev.unitRank = make([]int, len(ev.units))
	byID := make([]int, len(ev.units))
	n := len(ev.units)
	for _, u := range ev.units {
		if s.Arch.VertexByID(u.ID) == nil {
			n += len(u.Resources)
		}
	}
	terms := make([]float64, 0, n)
	for k, u := range ev.units {
		lo := len(terms)
		terms = appendCostTerms(terms, s, u)
		ev.unitTerms[k] = terms[lo:len(terms):len(terms)]
		byID[k] = k
	}
	slices.SortFunc(byID, func(a, b int) int { return cmp.Compare(ev.units[a].ID, ev.units[b].ID) })
	for rank, k := range byID {
		ev.unitRank[k] = rank
	}
	ev.tree = flex.NewIndexed(s.Problem, ev.sup.Clusters)
	ev.arch = spec.NewArchSpace(s)
	ev.unitCluster = make([]int, len(ev.units))
	for k, u := range ev.units {
		ev.unitCluster[k] = -1
		if i, ok := ev.arch.Clusters.Index(u.ID); ok {
			ev.unitCluster[k] = i
		}
	}
	if opts.Resume != nil {
		ev.base = opts.Resume.Stats.Cache
	}
	return ev
}

// snapshot reads the atomic counters into a CacheStats.
func (ev *evaluator) snapshot() CacheStats {
	return CacheStats{
		FlattenHits:       int(ev.flattenHits.Load()),
		FlattenMisses:     int(ev.flattenMisses.Load()),
		ArchFlattenHits:   int(ev.archHits.Load()),
		ArchFlattenMisses: int(ev.archMisses.Load()),
		SupportableReused: int(ev.supportReused.Load()),
	}
}

// fold publishes the cache counters (continued from any Resume base)
// into the run's stats. Safe to call repeatedly; the counters are
// cumulative.
func (ev *evaluator) fold(st *Stats) {
	st.Cache = ev.base.plus(ev.snapshot())
}

// evalScratch returns the whole scratch of one evaluating goroutine:
// the estimate's and the implementation's.
func (ev *evaluator) evalScratch() scratch {
	n := ev.sup.Clusters.Len()
	return scratch{
		sup:         ev.sup.NewScratch(),
		feasible:    bitset.New(n),
		implemented: bitset.New(n),
		memo:        make([]int8, n),
		archSet:     bitset.New(ev.arch.Clusters.Len()),
	}
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
// it to implement and avoid the historical double computation. It
// works on r's unit indices in sc and allocates nothing: the set is
// sc's own, valid until sc's next query.
func (ev *evaluator) estimate(r *candRec, sc *alloc.SupportScratch) (float64, bitset.Set) {
	sup := ev.sup.SupportableUnits(r.units, sc)
	return ev.flexOfBits(sup), sup
}

// maxFlexibility is MaxFlexibility in the run's index space: the
// flexibility of the clusters supportable when every unit is allocated,
// computed in sc.
func (ev *evaluator) maxFlexibility(sc *alloc.SupportScratch) float64 {
	all := make([]int, len(ev.units))
	for k := range all {
		all[k] = k
	}
	return ev.flexOfBits(ev.sup.SupportableUnits(all, sc))
}

func (ev *evaluator) flexOfBits(set bitset.Set) float64 {
	if ev.opts.Weighted {
		return ev.tree.WeightedFlexibility(set)
	}
	return ev.tree.Flexibility(set)
}

// attempt is an attempted candidate's implementation. It stays in index
// space: the fold compares cost and flexibility, and only admission
// builds the Implementation from the candidate's record and the picks
// (materialise). The picks alias the scratch of the goroutine that
// implemented the candidate, valid until its next attempt, or a pooled
// run's batch payload (pipeBatch.put). A ready Implementation (a Resume
// front) rides in im instead.
type attempt struct {
	// ok reports a positive flexibility: the candidate is feasible.
	ok    bool
	cost  float64
	flex  float64
	picks []pick
	im    *Implementation
}

// pick is one behaviour of an attempt: an ECS and the configuration it
// was found feasible under.
type pick struct {
	en  *ecsEntry
	cfg *archConfig
}

// readyAttempt wraps an implementation built elsewhere (nil when
// infeasible).
func readyAttempt(im *Implementation) attempt {
	if im == nil {
		return attempt{}
	}
	return attempt{ok: true, cost: im.Cost, flex: im.Flexibility, im: im}
}

// implement is the implementation construction through the caches, for
// the candidate given by its unit indices. sup is the supportable set
// of the candidate's estimate or possibility test, computed in w;
// implement only reads it during the call, and reads the candidate's
// resource closure from the same scratch. Search effort is added to
// stats, which must not be nil.
func (ev *evaluator) implement(units []int, sup bitset.Set, w *scratch, stats *Stats) attempt {
	ev.supportReused.Add(1)
	w.archSet.Clear()
	for _, k := range units {
		if i := ev.unitCluster[k]; i >= 0 {
			w.archSet.Add(i)
		}
	}
	at := ev.bindAll(w.sup.Avail(), sup, ev.configList(w.archSet), w, stats)
	if at.ok {
		at.cost = ev.unitsCost(units, w)
	}
	return at
}

// implementAllocation is implement for a candidate given as an
// allocation map that need not consist of units (Upgrade's base, the
// exported Implement's). The attempt carries no cost.
func (ev *evaluator) implementAllocation(a spec.Allocation, w *scratch, stats *Stats) attempt {
	avail := ev.sup.AvailOf(a)
	return ev.bindAll(avail, ev.sup.Supportable(avail), ev.configs(a), w, stats)
}

// bindAll is the cached implementation construction: it tests the ECSs
// of the supportable set sup on the configurations cfgs, viewed under
// the resource closure avail, one solve per (ECS, configuration) pair
// in w's scratch, and evaluates the flexibility of the clusters feasible
// behaviours implement. A feasible attempt's picks are w's, one per
// feasible ECS in list order, each with the first configuration it binds
// under.
func (ev *evaluator) bindAll(avail, sup bitset.Set, cfgs []*archConfig, w *scratch, stats *Stats) attempt {
	feasible := w.feasible
	feasible.Clear()
	picks := w.picks[:0]
	// Each configuration's view of the candidate, built when a binding
	// first needs it.
	if len(w.views) < len(cfgs) {
		w.views = append(w.views, make([]viewSlot, len(cfgs)-len(w.views))...)
	}
	views := w.views[:len(cfgs)]
	for j := range views {
		views[j].built = false
	}

	tested := 0
	maxECS, bopts := ev.opts.maxECS(), ev.bindOptions()
	for _, en := range ev.ecsList(sup) {
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
		if ev.problem(en) == nil {
			if tested >= maxECS {
				break
			}
			continue
		}
		for j, c := range cfgs {
			v := &views[j]
			if !v.built {
				v.build(c, avail)
			}
			stats.BindingRuns++
			res, ok := en.prob.Solve(&v.av, bopts, &w.bind)
			stats.BindingNodes += res.Nodes
			if ok {
				feasible.UnionWith(en.bits)
				picks = append(picks, pick{en: en, cfg: c})
				break
			}
		}
		if tested >= maxECS {
			break
		}
	}
	w.picks = picks

	ev.tree.Activatable(feasible, w.implemented, w.memo)
	f := ev.flexOfBits(w.implemented)
	if f <= 0 {
		return attempt{}
	}
	return attempt{ok: true, flex: f, picks: picks}
}

// bindOptions are the solver options of the run's binding searches.
func (ev *evaluator) bindOptions() bind.Options {
	return bind.Options{Timing: ev.opts.Timing, MaxNodes: ev.opts.MaxBindNodes}
}

// unitsCost is spec.Allocation.Cost of the candidate's allocation: the
// same terms, summed in the same sorted-ID order, so the two agree to
// the bit.
func (ev *evaluator) unitsCost(units []int, w *scratch) float64 {
	ids := append(w.ids[:0], units...)
	slices.SortFunc(ids, func(a, b int) int { return ev.unitRank[a] - ev.unitRank[b] })
	w.ids = ids
	total := 0.0
	for _, k := range ids {
		for _, t := range ev.unitTerms[k] {
			total += t
		}
	}
	return total
}

// appendCostTerms appends the terms spec.Allocation.Cost adds for unit
// u: a vertex's cost, or a cluster's own cost followed by its leaves',
// which are u's resources.
func appendCostTerms(terms []float64, s *spec.Spec, u alloc.Unit) []float64 {
	if v := s.Arch.VertexByID(u.ID); v != nil {
		return append(terms, v.Attrs.GetDefault(spec.AttrCost, 0))
	}
	if c := s.Arch.ClusterByID(u.ID); c != nil {
		terms = append(terms, c.Attrs.GetDefault(spec.AttrCost, 0))
		for _, r := range u.Resources {
			terms = append(terms, s.Arch.VertexByID(r).Attrs.GetDefault(spec.AttrCost, 0))
		}
	}
	return terms
}

// materialise builds the Implementation of candidate r's attempt in w,
// the committing goroutine's scratch: the allocation map (r's, when it
// has one); the implemented clusters, the activatable closure of the
// picks' clusters, which is the set bindAll evaluated; and behaviours
// with each configuration's ArchSelection cloned once and a fresh
// Binding map. Each binding is the witness the solver finds first on
// the pick's view of the allocation, under the run's timing and node
// bound. A witness solve counts in no Stats or CacheStats field. A
// ready implementation is handed out as an owned copy.
func (ev *evaluator) materialise(r *candRec, w *scratch) *Implementation {
	at := &r.att
	if at.im != nil {
		return owned(at.im)
	}
	w.feasible.Clear()
	for _, p := range at.picks {
		w.feasible.UnionWith(p.en.bits)
	}
	ev.tree.Activatable(w.feasible, w.implemented, w.memo)
	im := &Implementation{
		Allocation:  ev.allocation(r),
		Cost:        at.cost,
		Flexibility: at.flex,
		Clusters:    ev.sup.Clusters.IDs(w.implemented),
		Behaviours:  make([]Behaviour, len(at.picks)),
	}
	avail, bopts := ev.sup.AvailOf(im.Allocation), ev.bindOptions()
	for i, p := range at.picks {
		sel := hgraph.Selection(nil)
		for j, prev := range at.picks[:i] {
			if prev.cfg == p.cfg {
				sel = im.Behaviours[j].ArchSelection
				break
			}
		}
		if sel == nil {
			sel = p.cfg.sel.Clone()
		}
		p.cfg.links.ViewInto(&w.witness, p.cfg.sel, avail)
		res, ok := p.en.prob.Solve(&w.witness, bopts, &w.bind)
		if !ok {
			// bindAll's solve on the same present set found a binding,
			// and the solver is deterministic.
			panic(fmt.Sprintf("core: ECS %v is feasible under configuration %s, but its witness solve found no binding", ev.ecs(p.en), p.cfg.sel))
		}
		im.Behaviours[i] = Behaviour{ECS: ev.ecs(p.en), ArchSelection: sel, Binding: p.en.prob.Binding(res.Binding)}
	}
	return im
}

// admit adds candidate r's attempt to front under the objective vector
// (cost, 1/flex) and reports whether the front kept it. The vector is
// tested on the stack first, so a dominated attempt allocates nothing;
// only a kept attempt gets its entry and is materialised in w.
func (ev *evaluator) admit(front *pareto.Front, cost, flex float64, r *candRec, w *scratch) bool {
	p := pareto.CostFlexPoint(cost, flex)
	if front.DominatesPoint(p[:]) {
		return false
	}
	return front.Add(&pareto.Entry{Objectives: []float64{p[0], p[1]}, Value: ev.materialise(r, w)})
}

// ecsEntry is one elementary cluster activation of the problem, with
// everything the per-candidate loop needs precomputed: the
// activated-cluster bitset and the binding problem of its flattening
// (nil when it does not flatten), built once, when a supportable set's
// list first holds the entry. Its cover.ECS is built when a front first
// outputs it (ecs).
type ecsEntry struct {
	bits bitset.Set
	// listed marks an entry an interned list holds. It is set, and read,
	// only under the lock of the evaluator's ECS-list cache.
	listed bool
	once   sync.Once
	prob   *bind.Problem
	eOnce  sync.Once
	e      lazyECS
}

// lazyECS is an ECS table entry's cover.ECS, built on first use. It
// prints as the ECS before that too, so a diagnostic can print any
// entry's.
type lazyECS struct {
	ecs  cover.ECS
	x    *spec.ProblemSpace
	bits bitset.Set
}

func (l *lazyECS) build() cover.ECS {
	return cover.ECS{Selection: l.x.Selection(l.bits), Clusters: l.x.Clusters.IDs(l.bits)}
}

func (l lazyECS) String() string {
	if l.ecs.Clusters == nil && l.x != nil {
		return l.build().String()
	}
	return l.ecs.String()
}

// ecsTable returns the run's table of the problem's elementary cluster
// activations, laying out the problem graph and enumerating the table
// on first use. The ECSs belong to the problem; a candidate only
// restricts which of them are available. The entries' bitsets share one
// slab.
func (ev *evaluator) ecsTable() []ecsEntry {
	ev.tableOnce.Do(func() {
		ev.problems = spec.NewProblemSpace(ev.s, ev.sup.Clusters)
		// The enumeration yields every complete selection.
		n := ev.s.Problem.CountVariants()
		w := bitset.WordsFor(ev.problems.Clusters.Len())
		slab := make([]uint64, n*w)
		ev.table = make([]ecsEntry, 0, n)
		ev.problems.Enumerate(func(ecs bitset.Set) bool {
			bits := bitset.Of(slab[:w:w])
			slab = slab[w:]
			bits.UnionWith(ecs)
			ev.table = append(ev.table, ecsEntry{bits: bits, e: lazyECS{x: ev.problems, bits: bits}})
			return true
		})
	})
	return ev.table
}

// ecs returns en's elementary cluster activation in map form: its
// selection and its activated clusters in ActiveClusters order, built
// on the first call.
func (ev *evaluator) ecs(en *ecsEntry) cover.ECS {
	en.eOnce.Do(func() {
		en.e.ecs = en.e.build()
	})
	return en.e.ecs
}

// ecsList returns the ECS enumeration of a supportable set: the table
// entries whose clusters the set holds, in table order. The enumeration
// restricted to the set visits interfaces and clusters in the table's
// order and only skips subtrees, so this is its order too. Candidates
// with equal supportable sets share one interned list, filtered from
// the table under the cache's lock. The first list to hold an entry
// counts a flatten miss, and every later list holding it a hit; the
// caller that interns a list then prepares its entries. The entries are
// shared and must be treated as read-only; read an entry's problem
// through problem.
func (ev *evaluator) ecsList(sup bitset.Set) []*ecsEntry {
	table := ev.ecsTable()
	list, created := ev.ecss.getOrCreate(sup.KeyBytes(), func() []*ecsEntry {
		n := 0
		for i := range table {
			if table[i].bits.SubsetOf(sup) {
				n++
			}
		}
		list := make([]*ecsEntry, 0, n)
		for i := range table {
			if en := &table[i]; en.bits.SubsetOf(sup) {
				list = append(list, en)
				if en.listed {
					ev.flattenHits.Add(1)
				} else {
					en.listed = true
					ev.flattenMisses.Add(1)
				}
			}
		}
		return list
	})
	if created {
		for _, en := range list {
			ev.problem(en)
		}
	}
	return list
}

// problem returns en's binding problem, flattening its ECS in index
// space on the first call (nil when it does not flatten). bindAll reads
// each entry's problem through it, so a worker holding a list another
// worker interned waits for the entry it needs; its solves and
// materialise read only entries it has passed.
func (ev *evaluator) problem(en *ecsEntry) *bind.Problem {
	en.once.Do(func() {
		if leaves, edges, ok := ev.problems.Flatten(en.bits); ok {
			en.prob = bind.NewProblem(ev.s.Resources(), leaves, edges)
		}
	})
	return en.prob
}

// archConfig is one interned architecture configuration: its cluster
// selection, shared by every behaviour bound under it until a front
// admits the behaviour, and its links, on which a candidate's view costs
// one bitset.
type archConfig struct {
	once  sync.Once
	sel   hgraph.Selection
	links *spec.ArchLinks
}

// configList interns the architecture configurations of one set of
// allocated architecture clusters, in EnumerateArchSelections order.
type configList struct {
	once sync.Once
	list []*archConfig
}

// configs returns the interned architecture configurations of a. They
// depend only on a's allocated clusters, so they are looked up by that
// set as a bitset key and enumerated once per distinct set.
func (ev *evaluator) configs(a spec.Allocation) []*archConfig {
	set := bitset.New(ev.arch.Clusters.Len())
	for id := range a {
		if i, ok := ev.arch.Clusters.Index(id); ok {
			set.Add(i)
		}
	}
	return ev.configList(set)
}

// configList returns the interned configurations of the allocated
// architecture-cluster set, enumerating them on first use.
func (ev *evaluator) configList(set bitset.Set) []*archConfig {
	l, _ := ev.cfgLists.getOrCreate(set.KeyBytes(), func() *configList { return &configList{} })
	built := false
	l.once.Do(func() {
		built = true
		ev.arch.Enumerate(set, func(cfg bitset.Set) bool {
			l.list = append(l.list, ev.archConfig(cfg))
			return true
		})
	})
	if !built {
		// Every configuration of the list is one not rebuilt.
		ev.archHits.Add(int64(len(l.list)))
	}
	return l.list
}

// archConfig returns the interned configuration of the selected-cluster
// set cfg (which the caller may reuse), building its selection and links
// on first use.
func (ev *evaluator) archConfig(cfg bitset.Set) *archConfig {
	c, created := ev.archs.getOrCreate(cfg.KeyBytes(), func() *archConfig {
		return &archConfig{}
	})
	if created {
		ev.archMisses.Add(1)
	} else {
		ev.archHits.Add(1)
	}
	c.once.Do(func() {
		c.sel = ev.arch.Selection(cfg)
		c.links = ev.arch.Links(cfg)
	})
	return c
}

// viewSlot is one configuration's view of the candidate being
// implemented, in per-goroutine scratch: the view, its present set
// reused across candidates.
type viewSlot struct {
	av    spec.ArchView
	built bool
}

// build makes the slot the view of configuration c under the resource
// closure avail.
func (v *viewSlot) build(c *archConfig, avail bitset.Set) {
	c.links.ViewInto(&v.av, c.sel, avail)
	v.built = true
}

// cache is an interning map over byte-string keys behind one mutex,
// shared by the parallel explorer's workers. Its map is made on the
// first insert.
type cache[V any] struct {
	mu sync.Mutex
	m  map[string]V
}

// getOrCreate returns the value under key, creating it with mk while
// holding the lock. The boolean reports creation (a cache miss). A
// lookup that finds the key copies nothing, and only a created entry
// copies the key into a string. mk must be cheap; expensive
// construction belongs behind a sync.Once in the stored value.
func (c *cache[V]) getOrCreate(key []byte, mk func() V) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.m[string(key)]; ok {
		return v, false
	}
	v := mk()
	if c.m == nil {
		c.m = map[string]V{}
	}
	c.m[string(key)] = v
	return v, true
}
