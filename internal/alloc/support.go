package alloc

import (
	"slices"

	"repro/internal/bitset"
	"repro/internal/hgraph"
	"repro/internal/spec"
)

// Supporter answers SupportableClusters queries over dense bitsets. It
// precomputes, once per specification, the per-cluster reachability
// structure that the map-based SupportableClusters rebuilds on every
// candidate: for each problem cluster the resource sets its vertices
// can map onto, the cluster tree in index space, and for each
// allocatable unit the resources it provides. A query on a candidate
// given as unit indices then costs word-parallel unions and
// intersection tests in caller-owned scratch, and allocates nothing.
//
// A Supporter is immutable after New and safe for concurrent use; the
// mutable side of a query lives in a SupportScratch that each goroutine
// owns.
type Supporter struct {
	s *spec.Spec
	// Clusters indexes the problem-graph clusters; Supportable results
	// are bitsets over it.
	Clusters *bitset.Indexer[hgraph.ID]
	// Resources indexes the architecture-graph leaves; AvailOf results
	// are bitsets over it. It is the spec's own index (spec.Resources),
	// so the closures are directly usable as spec.ArchView avail sets.
	Resources *bitset.Indexer[hgraph.ID]
	// Units are the allocatable units in Units(s) order: the space the
	// unit indices of SupportableUnits and the enumerations refer to.
	Units []Unit
	// busAdj holds per bus unit the ascending indices of the functional
	// units it touches (busAdjacency); nil for other units. The
	// useless-bus rule reads it.
	busAdj [][]int

	// clusterRes maps every architecture cluster ID to the leaf
	// resources it contributes when allocated (a leaf contributes its
	// own index); unitRes holds the resources of each unit by index.
	clusterRes map[hgraph.ID]bitset.Set
	unitRes    []bitset.Set
	// nodes holds per problem cluster (by index) the vertex needs and
	// child clusters.
	nodes []supportNode
	root  int
}

type supportNode struct {
	cluster *hgraph.Cluster
	// vertexNeeds has one resource set per own vertex: the resources a
	// mapping edge can reach. A vertex with no mappings has an empty
	// set, which never intersects an allocation.
	vertexNeeds []bitset.Set
	// ifaces lists, per interface of the cluster, the child cluster
	// indices.
	ifaces [][]int
}

// NewSupporter builds the reachability structure for a specification.
// Every resource set it keeps is carved out of one slab.
func NewSupporter(s *spec.Spec) *Supporter {
	clusters, archClusters := s.Problem.Clusters(), s.Arch.Clusters()
	clusterIDs := make([]hgraph.ID, len(clusters))
	vertices := 0
	for i, c := range clusters {
		clusterIDs[i] = c.ID
		vertices += len(c.Vertices)
	}
	sp := &Supporter{
		s:          s,
		Clusters:   bitset.NewIndexer(clusterIDs),
		Resources:  s.Resources(),
		Units:      Units(s),
		clusterRes: make(map[hgraph.ID]bitset.Set, len(archClusters)),
		nodes:      make([]supportNode, len(clusterIDs)),
	}
	w := bitset.WordsFor(sp.Resources.Len())
	slab := make([]uint64, (len(archClusters)+len(sp.Units)+vertices)*w)
	next := func() bitset.Set {
		set := bitset.Of(slab[:w:w])
		slab = slab[w:]
		return set
	}
	for _, c := range archClusters {
		set := next()
		for _, lv := range s.Arch.LeavesOf(c) {
			i, _ := sp.Resources.Index(lv.ID)
			set.Add(i)
		}
		sp.clusterRes[c.ID] = set
	}
	sp.unitRes = make([]bitset.Set, len(sp.Units))
	for k, u := range sp.Units {
		if set, ok := sp.clusterRes[u.ID]; ok {
			sp.unitRes[k] = set
			continue
		}
		sp.unitRes[k] = next()
		i, _ := sp.Resources.Index(u.ID)
		sp.unitRes[k].Add(i)
	}
	sp.busAdj = busAdjacency(s, sp.Units)
	for i, c := range clusters {
		n := supportNode{cluster: c, vertexNeeds: make([]bitset.Set, len(c.Vertices))}
		for k, v := range c.Vertices {
			need := next()
			for _, m := range s.MappingsFor(v.ID) {
				if ri, ok := sp.Resources.Index(m.Resource); ok {
					need.Add(ri)
				}
			}
			n.vertexNeeds[k] = need
		}
		for _, iface := range c.Interfaces {
			var subs []int
			for _, sub := range iface.Clusters {
				if si, ok := sp.Clusters.Index(sub.ID); ok {
					subs = append(subs, si)
				}
			}
			n.ifaces = append(n.ifaces, subs)
		}
		sp.nodes[i] = n
	}
	sp.root, _ = sp.Clusters.Index(s.Problem.Root.ID)
	return sp
}

// SupportScratch is the reusable state of a Supporter query: the
// resource closure, the per-cluster memo and the result set. A query
// overwrites it, so each goroutine owns its own.
type SupportScratch struct {
	avail bitset.Set
	memo  []int8
	out   bitset.Set
}

// NewScratch returns query scratch sized for this Supporter.
func (sp *Supporter) NewScratch() *SupportScratch {
	return &SupportScratch{
		avail: bitset.New(sp.Resources.Len()),
		memo:  make([]int8, len(sp.nodes)),
		out:   bitset.New(len(sp.nodes)),
	}
}

// load sets sc's resource closure to the resources of the unit-index
// set and forgets its memo.
func (sp *Supporter) load(units []int, sc *SupportScratch) {
	sc.avail.Clear()
	for _, k := range units {
		sc.avail.UnionWith(sp.unitRes[k])
	}
	clear(sc.memo)
}

// SupportableUnits returns the supportable clusters of the allocation
// given by ascending indices into Units: SupportableClusters in index
// space. The result is sc's own set, valid until sc's next query.
func (sp *Supporter) SupportableUnits(units []int, sc *SupportScratch) bitset.Set {
	sp.load(units, sc)
	sc.out.Clear()
	sp.mark(sp.root, sc)
	return sc.out
}

// Avail returns the resource closure of sc's last unit-index query (a
// set over Resources). It is sc's own, valid until sc's next query.
func (sc *SupportScratch) Avail() bitset.Set { return sc.avail }

// possibleUnits is the possibility test (rule 4: root supportability)
// for the unit-index set. Testing only the root skips the marking pass
// SupportableUnits adds on top.
func (sp *Supporter) possibleUnits(units []int, sc *SupportScratch) bool {
	sp.load(units, sc)
	return sp.supportableFrom(sp.root, sc.avail, sc.memo)
}

// AvailOf returns the allocation's resource closure as a bitset over
// Resources — Allocation.ResourceSet without the maps.
func (sp *Supporter) AvailOf(a spec.Allocation) bitset.Set {
	avail := bitset.New(sp.Resources.Len())
	for id := range a {
		if i, ok := sp.Resources.Index(id); ok {
			avail.Add(i)
		} else if set, ok := sp.clusterRes[id]; ok {
			avail.UnionWith(set)
		}
	}
	return avail
}

// Supportable returns the problem clusters that remain activatable when
// the architecture is restricted to the given resource closure — the
// bitset counterpart of SupportableClusters, with identical semantics:
// a cluster is supportable iff each of its own vertices reaches the
// closure through a mapping edge and each of its interfaces has at
// least one supportable cluster; the result marks only clusters whose
// whole ancestor chain is supportable.
func (sp *Supporter) Supportable(avail bitset.Set) bitset.Set {
	sc := &SupportScratch{avail: avail, memo: make([]int8, len(sp.nodes)), out: bitset.New(len(sp.nodes))}
	sp.mark(sp.root, sc)
	return sc.out
}

// mark adds the cluster at index i to sc.out when it is supportable,
// and then every supportable cluster below it.
func (sp *Supporter) mark(i int, sc *SupportScratch) {
	if !sp.supportableFrom(i, sc.avail, sc.memo) {
		return
	}
	sc.out.Add(i)
	for _, subs := range sp.nodes[i].ifaces {
		for _, si := range subs {
			sp.mark(si, sc)
		}
	}
}

// supportableFrom reports whether the cluster at index i is supportable
// under the resource closure avail. memo holds one entry per cluster
// (0 unknown, 1 yes, 2 no) and must be zeroed between closures.
func (sp *Supporter) supportableFrom(i int, avail bitset.Set, memo []int8) bool {
	if memo[i] != 0 {
		return memo[i] == 1
	}
	n := &sp.nodes[i]
	res := true
	for _, need := range n.vertexNeeds {
		if !need.Intersects(avail) {
			res = false
			break
		}
	}
	if res {
		for _, subs := range n.ifaces {
			any := false
			for _, si := range subs {
				if sp.supportableFrom(si, avail, memo) {
					any = true
				}
			}
			if !any {
				res = false
				break
			}
		}
	}
	if res {
		memo[i] = 1
	} else {
		memo[i] = 2
	}
	return res
}

// busAdjacency returns per bus unit the ascending indices of the
// functional units the top-level architecture edges connect it to, an
// interface endpoint standing for every cluster of the interface; nil
// for the other units.
func busAdjacency(s *spec.Spec, units []Unit) [][]int {
	pos := make(map[hgraph.ID]int, len(units))
	for k, u := range units {
		pos[u.ID] = k
	}
	endpoints := func(id hgraph.ID, out []int) []int {
		if k, ok := pos[id]; ok {
			return append(out, k)
		}
		if i := s.Arch.InterfaceByID(id); i != nil {
			for _, c := range i.Clusters {
				if k, ok := pos[c.ID]; ok {
					out = append(out, k)
				}
			}
		}
		return out
	}
	// Two passes over the edges: the first sizes each bus's list, the
	// second fills the lists, carved out of one backing array.
	adj := make([][]int, len(units))
	var from, to []int
	edges := func(link func(bus, other int)) {
		for _, e := range s.Arch.Root.Edges {
			from, to = endpoints(e.From, from[:0]), endpoints(e.To, to[:0])
			for _, x := range from {
				for _, y := range to {
					if units[x].Comm && !units[y].Comm {
						link(x, y)
					}
					if units[y].Comm && !units[x].Comm {
						link(y, x)
					}
				}
			}
		}
	}
	size := make([]int, len(units))
	total := 0
	edges(func(bus, _ int) { size[bus]++; total++ })
	backing := make([]int, 0, total)
	for k, n := range size {
		if n > 0 {
			adj[k] = backing[:0:n]
			backing = backing[n:n]
		}
	}
	edges(func(bus, other int) { adj[bus] = append(adj[bus], other) })
	for k := range adj {
		slices.Sort(adj[k])
		adj[k] = slices.Clip(slices.Compact(adj[k]))
	}
	return adj
}
