package spec

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/hgraph"
)

// Resources returns the dense index of the architecture leaves: the
// index space of every resource bitset the library keeps (ArchView's
// present set, the allocation closures of package alloc). It belongs to
// the architecture graph, so a mutation of the graph re-indexes.
func (s *Spec) Resources() *bitset.Indexer[hgraph.ID] { return s.Arch.LeafIndexer() }

// ArchLinks is one flattened architecture configuration in the index
// space of Resources: the resources the flattening contains, and per
// resource its adjacency row and the communication resources (buses)
// among its neighbours. It is built once per configuration
// (ArchSpace.Links), is immutable, and every view over the
// configuration shares it.
type ArchLinks struct {
	ix   *bitset.Indexer[hgraph.ID]
	mask bitset.Set
	// sets holds, w words each, the adjacency row of every resource,
	// then every resource's buses: row(i) holds the resources linked to
	// resource i, bus(i) is row(i) restricted to communication
	// resources. Both are empty for resources outside the flattening.
	w, n int
	sets []uint64
}

func (l *ArchLinks) row(i int) bitset.Set { return l.set(i) }

func (l *ArchLinks) bus(i int) bitset.Set { return l.set(l.n + i) }

func (l *ArchLinks) set(k int) bitset.Set {
	return bitset.Of(l.sets[k*l.w : (k+1)*l.w : (k+1)*l.w])
}

// ArchSpace is the architecture graph of a specification laid out in
// the index spaces of its clusters and its resources (see layout), so
// the configurations of an allocation are enumerated and linked without
// a selection map or a flattened graph. A configuration is a set over
// Clusters: the root and the cluster selected for each active
// interface. An ArchSpace is immutable and safe for concurrent use; a
// mutation of the graph needs a new one.
type ArchSpace struct {
	layout
	comm bitset.Set
}

// NewArchSpace lays out the architecture graph of s.
func NewArchSpace(s *Spec) *ArchSpace {
	x := &ArchSpace{layout: newLayout(s.Arch, s.Resources(), clusterIndex(s.Arch))}
	x.comm = bitset.New(x.leaves.Len())
	for i := range x.leaves.Len() {
		if s.Arch.VertexByID(x.leaves.At(i)).Attrs.GetDefault(AttrComm, 0) != 0 {
			x.comm.Add(i)
		}
	}
	return x
}

// Enumerate calls fn for every configuration of the allocated clusters
// (a set over Clusters), in EnumerateArchSelections order: for each
// interface reachable from the root through selected clusters that has
// an allocated cluster, exactly one allocated cluster is selected;
// interfaces without one stay inactive. It stops when fn returns false.
// The set passed to fn is reused; clone it to retain.
func (x *ArchSpace) Enumerate(allocated bitset.Set, fn func(cfg bitset.Set) bool) {
	x.enumerate(allocated, fn)
}

// Links builds the configuration's ArchLinks: the resources of the root
// and of every selected cluster reachable from it, linked by their
// edges with each endpoint resolved through the selected clusters' port
// bindings — what FlattenPartial of the configuration's selection holds,
// in index space. The links' sets share one slab.
func (x *ArchSpace) Links(cfg bitset.Set) *ArchLinks {
	n := x.leaves.Len()
	w := bitset.WordsFor(n)
	slab := make([]uint64, (2*n+1)*w)
	l := &ArchLinks{ix: x.leaves, mask: bitset.Of(slab[:w:w]), w: w, n: n, sets: slab[w:]}
	x.walk(x.root, cfg, func(sc *scope) bool {
		for _, i := range sc.verts {
			l.mask.Add(i)
		}
		return true
	})
	x.walk(x.root, cfg, func(sc *scope) bool {
		for _, e := range sc.edges {
			// An endpoint that reaches no resource drops its edge, as
			// FlattenPartial drops an edge reaching an inactive
			// interface or a cluster without a binding for its port.
			i, ok1 := x.endpoint(e.from, cfg)
			j, ok2 := x.endpoint(e.to, cfg)
			if !ok1 || !ok2 || !l.mask.Has(i) || !l.mask.Has(j) {
				continue
			}
			// Buses are bidirectional at this level of abstraction: the
			// paper's feasibility rule only asks for an activated
			// architecture link handling the communication.
			l.row(i).Add(j)
			l.row(j).Add(i)
			if x.comm.Has(j) {
				l.bus(i).Add(j)
			}
			if x.comm.Has(i) {
				l.bus(j).Add(i)
			}
		}
		return true
	})
	return l
}

// View returns the architecture view of the flattening restricted to
// the resource closure avail (a set over Resources). The view keeps sel
// as its Selection without copying it. Building a view costs one
// bitset: the present set mask ∧ avail.
func (l *ArchLinks) View(sel hgraph.Selection, avail bitset.Set) *ArchView {
	av := &ArchView{}
	l.ViewInto(av, sel, avail)
	return av
}

// ViewInto is View into caller-owned storage: it overwrites av, reusing
// av's present set, so a view rebuilt per candidate allocates nothing.
func (l *ArchLinks) ViewInto(av *ArchView, sel hgraph.Selection, avail bitset.Set) {
	av.Selection, av.links = sel, l
	av.present.CopyFrom(l.mask)
	av.present.IntersectWith(avail)
}

// ArchView is the instantaneous architecture implied by an allocation
// and one architecture configuration (cluster selection): the set of
// present resources and their interconnection, used to decide
// communication feasibility of bindings.
//
// A view is a present-resource bitset over the spec's Resources index
// on top of its configuration's shared ArchLinks; the queries are a few
// word-wise operations, and views of one configuration differ only in
// their present sets.
type ArchView struct {
	Selection hgraph.Selection
	links     *ArchLinks
	present   bitset.Set
}

// ArchViewFor constructs the architecture view for an allocation under
// a given architecture configuration. Resources not covered by the
// allocation are removed together with their links.
func (s *Spec) ArchViewFor(a Allocation, archSel hgraph.Selection) (*ArchView, error) {
	x := NewArchSpace(s)
	cfg, err := x.Configuration(archSel)
	if err != nil {
		return nil, fmt.Errorf("spec %q: flatten architecture: %w", s.Name, err)
	}
	avail := s.Resources().SetOf(a.Resources(s)...)
	return x.Links(cfg).View(archSel.Clone(), avail), nil
}

// PresentSet returns the view's present resources as a set over the
// spec's Resources index. The set is the view's own; treat it as
// read-only.
func (av *ArchView) PresentSet() bitset.Set { return av.present }

// index returns r's index when r is present in the view.
func (av *ArchView) index(r hgraph.ID) (int, bool) {
	i, ok := av.links.ix.Index(r)
	return i, ok && av.present.Has(i)
}

// Present reports whether a resource exists in this view.
func (av *ArchView) Present(r hgraph.ID) bool {
	_, ok := av.index(r)
	return ok
}

// PresentIndex reports whether the resource at index i of the spec's
// Resources exists in this view.
func (av *ArchView) PresentIndex(i int) bool { return av.present.Has(i) }

// PresentResources returns the resources of the view, sorted.
func (av *ArchView) PresentResources() []hgraph.ID { return av.links.ix.IDs(av.present) }

// Adjacent reports whether two present resources are directly linked.
func (av *ArchView) Adjacent(r1, r2 hgraph.ID) bool {
	i, ok1 := av.index(r1)
	j, ok2 := av.index(r2)
	return ok1 && ok2 && av.links.row(i).Has(j)
}

// CanCommunicate implements the paper's binding feasibility rule 3 for
// an edge of the problem graph whose endpoints are bound to r1 and r2:
// either both operations share a resource, or an activated architecture
// link handles the communication — a direct link, or a one-hop route
// through an activated communication resource (bus vertex) connected to
// both. (The Fig. 2 example — no bus between ASIC and FPGA — requires
// exactly this notion.)
func (av *ArchView) CanCommunicate(r1, r2 hgraph.ID) bool {
	i, ok1 := av.links.ix.Index(r1)
	j, ok2 := av.links.ix.Index(r2)
	return ok1 && ok2 && av.CanCommunicateIndex(i, j)
}

// CanCommunicateIndex is CanCommunicate on the resources at indices i
// and j of the spec's Resources.
func (av *ArchView) CanCommunicateIndex(i, j int) bool {
	if !av.present.Has(i) {
		return false
	}
	if i == j {
		return true
	}
	if !av.present.Has(j) {
		return false
	}
	l := av.links
	return l.row(i).Has(j) || l.bus(i).IntersectsBoth(l.bus(j), av.present)
}
