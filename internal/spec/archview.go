package spec

import (
	"fmt"
	"slices"

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
// the index spaces of its clusters and its resources, so the
// configurations of an allocation are enumerated and linked without a
// selection map or a flattened graph. A configuration is a set over
// Clusters: the cluster selected for each active interface. Each
// cluster (the root included) lists its own resources, its interfaces
// and its edges, and each edge endpoint that names an interface lists
// where the port bindings below it lead: per chain of clusters whose
// selection reaches a vertex, the resource reached. The graph must
// validate (spec.New checks it), so every endpoint is a vertex or an
// interface of its cluster and every chain descends. An ArchSpace is
// immutable and safe for concurrent use; a mutation of the graph needs
// a new one.
type ArchSpace struct {
	res *bitset.Indexer[hgraph.ID]
	// Clusters indexes the architecture clusters, the root included.
	Clusters *bitset.Indexer[hgraph.ID]
	root     int
	scopes   []archScope // per cluster index
	ifaces   []archIface
	// owner holds per cluster the index of the interface it refines (-1
	// for the root).
	owner []int
	// ends holds the resolutions of the interface endpoints, each
	// endpoint's a range of it.
	ends []archEnd
	comm bitset.Set
}

// archScope is what one cluster contributes to a flattening it takes
// part in.
type archScope struct {
	verts  []int // own vertices' resource indices
	ifaces []int // own interfaces' indices, in the graph's order
	edges  []archEdge
}

type archIface struct {
	id       hgraph.ID
	clusters []int // in the graph's order
}

// archEdge is an edge with each endpoint resolved as far as it goes
// without a selection: a vertex endpoint to its resource index (lo <
// 0), an interface endpoint to its resolutions, ends[lo:hi].
type archEdge struct {
	from, to archRef
}

type archRef struct{ res, lo, hi int32 }

// archEnd is one way an interface endpoint resolves: through the port
// bindings of the clusters in via, which must all be selected, to the
// resource res. An endpoint with no matching resolution is dropped
// with its edge, as FlattenPartial drops an edge reaching an inactive
// interface.
type archEnd struct {
	via []int
	res int
}

// NewArchSpace lays out the architecture graph of s.
func NewArchSpace(s *Spec) *ArchSpace {
	g := s.Arch
	clusters := g.Clusters()
	ids := make([]hgraph.ID, len(clusters))
	for i, c := range clusters {
		ids[i] = c.ID
	}
	x := &ArchSpace{
		res:      s.Resources(),
		Clusters: bitset.NewIndexer(ids),
		scopes:   make([]archScope, len(clusters)),
		owner:    make([]int, len(clusters)),
	}
	x.comm = bitset.New(x.res.Len())
	x.root, _ = x.Clusters.Index(g.Root.ID)
	x.owner[x.root] = -1
	var visit func(c *hgraph.Cluster) int
	visit = func(c *hgraph.Cluster) int {
		ci, _ := x.Clusters.Index(c.ID)
		sc := &x.scopes[ci]
		sc.verts = make([]int, 0, len(c.Vertices))
		for _, v := range c.Vertices {
			// Every vertex is a leaf, so it has a resource index.
			i, _ := x.res.Index(v.ID)
			sc.verts = append(sc.verts, i)
			if v.Attrs.GetDefault(AttrComm, 0) != 0 {
				x.comm.Add(i)
			}
		}
		for _, iface := range c.Interfaces {
			k := len(x.ifaces)
			x.ifaces = append(x.ifaces, archIface{id: iface.ID})
			sc.ifaces = append(sc.ifaces, k)
			for _, sub := range iface.Clusters {
				si := visit(sub)
				x.owner[si] = k
				x.ifaces[k].clusters = append(x.ifaces[k].clusters, si)
			}
		}
		return ci
	}
	visit(g.Root)
	for i, c := range clusters {
		sc := &x.scopes[i]
		sc.edges = make([]archEdge, len(c.Edges))
		for k, e := range c.Edges {
			sc.edges[k] = archEdge{from: x.ref(g, e.From, e.FromPort), to: x.ref(g, e.To, e.ToPort)}
		}
	}
	return x
}

// ref resolves the endpoint (id, port), appending an interface's
// resolutions to x.ends.
func (x *ArchSpace) ref(g *hgraph.Graph, id hgraph.ID, port string) archRef {
	if g.VertexByID(id) != nil {
		i, _ := x.res.Index(id)
		return archRef{res: int32(i), lo: -1}
	}
	lo := len(x.ends)
	x.ends = x.resolutions(g, id, port, nil, x.ends)
	return archRef{lo: int32(lo), hi: int32(len(x.ends))}
}

// resolutions appends to out every way the endpoint (id, port) resolves
// once the clusters in via are selected: what FlattenPartial resolves
// it to under each selection.
func (x *ArchSpace) resolutions(g *hgraph.Graph, id hgraph.ID, port string, via []int, out []archEnd) []archEnd {
	if g.VertexByID(id) != nil {
		i, _ := x.res.Index(id)
		return append(out, archEnd{via: via, res: i})
	}
	for _, sub := range g.InterfaceByID(id).Clusters {
		if target, ok := sub.PortBinding[port]; ok {
			ci, _ := x.Clusters.Index(sub.ID)
			out = x.resolutions(g, target, port, append(slices.Clip(via), ci), out)
		}
	}
	return out
}

// Enumerate calls fn for every configuration of the allocated clusters
// (a set over Clusters), in EnumerateArchSelections order: for each
// interface reachable from the root through selected clusters that has
// an allocated cluster, exactly one allocated cluster is selected;
// interfaces without one stay inactive. It stops when fn returns false.
// The set passed to fn is reused; clone it to retain.
func (x *ArchSpace) Enumerate(allocated bitset.Set, fn func(cfg bitset.Set) bool) {
	e := archEnum{x: x, allocated: allocated, sel: bitset.New(x.Clusters.Len()), fn: fn}
	e.next(&archAgenda{ifaces: x.scopes[x.root].ifaces})
}

// archEnum is one Enumerate call's state.
type archEnum struct {
	x         *ArchSpace
	allocated bitset.Set
	sel       bitset.Set
	fn        func(bitset.Set) bool
}

// archAgenda is the interfaces an enumeration has still to decide: the
// rest of one cluster's interfaces, then its parent agenda's.
type archAgenda struct {
	ifaces []int
	parent *archAgenda
}

// next decides the agenda's first interface and recurses on the rest,
// calling fn once the agenda is empty.
func (e *archEnum) next(a *archAgenda) bool {
	for a != nil && len(a.ifaces) == 0 {
		a = a.parent
	}
	if a == nil {
		return e.fn(e.sel)
	}
	rest := archAgenda{ifaces: a.ifaces[1:], parent: a.parent}
	active := false
	for _, c := range e.x.ifaces[a.ifaces[0]].clusters {
		if !e.allocated.Has(c) {
			continue
		}
		active = true
		e.sel.Add(c)
		cont := e.next(&archAgenda{ifaces: e.x.scopes[c].ifaces, parent: &rest})
		e.sel.Remove(c)
		if !cont {
			return false
		}
	}
	if !active {
		return e.next(&rest)
	}
	return true
}

// Selection returns the configuration cfg as a selection map: each
// selected cluster's interface mapped to it.
func (x *ArchSpace) Selection(cfg bitset.Set) hgraph.Selection {
	sel := make(hgraph.Selection, cfg.Count())
	x.fill(sel, cfg)
	return sel
}

// fill writes cfg's entries into sel.
func (x *ArchSpace) fill(sel hgraph.Selection, cfg bitset.Set) {
	cfg.ForEach(func(c int) bool {
		if k := x.owner[c]; k >= 0 {
			sel[x.ifaces[k].id] = x.Clusters.At(c)
		}
		return true
	})
}

// Configuration returns the configuration of a selection map: the
// clusters it selects on the interfaces reachable from the root through
// selected clusters, the part of a selection a flattening reads. It
// fails when such an interface selects a cluster it does not have.
func (x *ArchSpace) Configuration(sel hgraph.Selection) (bitset.Set, error) {
	cfg := bitset.New(x.Clusters.Len())
	var walk func(sc int) error
	walk = func(sc int) error {
		for _, k := range x.scopes[sc].ifaces {
			cid, ok := sel[x.ifaces[k].id]
			if !ok {
				continue
			}
			i, ok := x.Clusters.Index(cid)
			if !ok || x.owner[i] != k {
				return fmt.Errorf("interface %q: selected cluster %q unknown", x.ifaces[k].id, cid)
			}
			cfg.Add(i)
			if err := walk(i); err != nil {
				return err
			}
		}
		return nil
	}
	return cfg, walk(x.root)
}

// Links builds the configuration's ArchLinks: the resources of the root
// and of every selected cluster reachable from it, linked by their
// edges with each endpoint resolved through the selected clusters' port
// bindings — what FlattenPartial of the configuration's selection holds,
// in index space. The links' sets share one slab.
func (x *ArchSpace) Links(cfg bitset.Set) *ArchLinks {
	n := x.res.Len()
	w := bitset.WordsFor(n)
	slab := make([]uint64, (2*n+1)*w)
	l := &ArchLinks{ix: x.res, mask: bitset.Of(slab[:w:w]), w: w, n: n, sets: slab[w:]}
	x.walk(x.root, cfg, func(sc *archScope) {
		for _, i := range sc.verts {
			l.mask.Add(i)
		}
	})
	x.walk(x.root, cfg, func(sc *archScope) {
		for _, e := range sc.edges {
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
	})
	return l
}

// walk calls fn on the scope of cluster sc and of every cluster cfg
// selects below it.
func (x *ArchSpace) walk(sc int, cfg bitset.Set, fn func(*archScope)) {
	fn(&x.scopes[sc])
	for _, k := range x.scopes[sc].ifaces {
		for _, c := range x.ifaces[k].clusters {
			if cfg.Has(c) {
				x.walk(c, cfg, fn)
				break
			}
		}
	}
}

// endpoint returns the resource an endpoint reaches under cfg, false
// when it reaches none.
func (x *ArchSpace) endpoint(r archRef, cfg bitset.Set) (int, bool) {
	if r.lo < 0 {
		return int(r.res), true
	}
	for _, end := range x.ends[r.lo:r.hi] {
		if allOf(end.via, cfg) {
			return end.res, true
		}
	}
	return 0, false
}

func allOf(idx []int, set bitset.Set) bool {
	for _, i := range idx {
		if !set.Has(i) {
			return false
		}
	}
	return true
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
