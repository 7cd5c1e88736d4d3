package spec

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/hgraph"
)

// layout is one hierarchical graph of a specification laid out in the
// index spaces of its clusters and its leaves, so its selections are
// enumerated and flattened without a selection map or a flattened
// graph. A selection is a set over Clusters: the cluster selected for
// each active interface, with the root. Each cluster (the root
// included) lists its own leaves, its interfaces and its edges, and
// each edge endpoint that names an interface lists where the port
// bindings below it lead: per chain of clusters whose selection reaches
// a vertex, the leaf reached. The graph must validate (spec.New checks it), so every
// endpoint is a vertex or an interface of its cluster and every chain
// descends. ArchSpace and ProblemSpace share it; it is immutable.
type layout struct {
	leaves *bitset.Indexer[hgraph.ID]
	// Clusters indexes the graph's clusters, the root included, in ID
	// order.
	Clusters *bitset.Indexer[hgraph.ID]
	root     int
	scopes   []scope // per cluster index
	ifaces   []iface
	// owner holds per cluster the index of the interface it refines (-1
	// for the root).
	owner []int
	// ends holds the resolutions of the interface endpoints, each
	// endpoint's a range of it, and vias their chains of clusters, each
	// resolution's a range of it.
	ends []end
	vias []int
}

// scope is what one cluster contributes to a flattening it takes part
// in.
type scope struct {
	verts  []int // own vertices' leaf indices
	ifaces []int // own interfaces' indices, in the graph's order
	edges  []edge
}

type iface struct {
	id       hgraph.ID
	clusters []int // in the graph's order
}

// edge is an edge with each endpoint resolved as far as it goes
// without a selection: a vertex endpoint to its leaf index (lo < 0), an
// interface endpoint to its resolutions, ends[lo:hi].
type edge struct {
	from, to ref
}

type ref struct{ leaf, lo, hi int32 }

// end is one way an interface endpoint resolves: through the port
// bindings of the clusters vias[lo:hi], which must all be selected, to
// the leaf leaf. An endpoint no chain of which is selected reaches no
// leaf.
type end struct {
	lo, hi int32
	leaf   int
}

// newLayout lays out g over its leaf index leaves and its cluster index
// clusters, which must index every cluster of g. Each kind of list the
// layout keeps is carved out of one slab.
func newLayout(g *hgraph.Graph, leaves, clusters *bitset.Indexer[hgraph.ID]) layout {
	var nv, ni, nc, ne int
	var count func(c *hgraph.Cluster)
	count = func(c *hgraph.Cluster) {
		nv, ni, ne = nv+len(c.Vertices), ni+len(c.Interfaces), ne+len(c.Edges)
		for _, ifc := range c.Interfaces {
			nc += len(ifc.Clusters)
			for _, sub := range ifc.Clusters {
				count(sub)
			}
		}
	}
	count(g.Root)
	n := clusters.Len()
	x := layout{
		leaves:   leaves,
		Clusters: clusters,
		scopes:   make([]scope, n),
		ifaces:   make([]iface, 0, ni),
		owner:    make([]int, n),
	}
	ints := make([]int, nv+ni+nc)
	take := func(k int) []int {
		s := ints[:0:k]
		ints = ints[k:]
		return s
	}
	edges := make([]edge, ne)
	x.root, _ = x.Clusters.Index(g.Root.ID)
	x.owner[x.root] = -1
	var visit func(c *hgraph.Cluster) int
	visit = func(c *hgraph.Cluster) int {
		ci, _ := x.Clusters.Index(c.ID)
		sc := &x.scopes[ci]
		sc.verts = take(len(c.Vertices))
		for _, v := range c.Vertices {
			// Every vertex is a leaf, so it has a leaf index.
			i, _ := x.leaves.Index(v.ID)
			sc.verts = append(sc.verts, i)
		}
		sc.edges, edges = edges[:len(c.Edges):len(c.Edges)], edges[len(c.Edges):]
		for k, e := range c.Edges {
			sc.edges[k] = edge{from: x.ref(g, e.From, e.FromPort), to: x.ref(g, e.To, e.ToPort)}
		}
		sc.ifaces = take(len(c.Interfaces))
		for _, ifc := range c.Interfaces {
			k := len(x.ifaces)
			x.ifaces = append(x.ifaces, iface{id: ifc.ID, clusters: take(len(ifc.Clusters))})
			sc.ifaces = append(sc.ifaces, k)
			for _, sub := range ifc.Clusters {
				si := visit(sub)
				x.owner[si] = k
				x.ifaces[k].clusters = append(x.ifaces[k].clusters, si)
			}
		}
		return ci
	}
	visit(g.Root)
	return x
}

// clusterIndex indexes every cluster of g, the root included, in ID
// order.
func clusterIndex(g *hgraph.Graph) *bitset.Indexer[hgraph.ID] {
	clusters := g.Clusters()
	ids := make([]hgraph.ID, len(clusters))
	for i, c := range clusters {
		ids[i] = c.ID
	}
	return bitset.NewIndexer(ids)
}

// ref resolves the endpoint (id, port), appending an interface's
// resolutions to x.ends.
func (x *layout) ref(g *hgraph.Graph, id hgraph.ID, port string) ref {
	if g.VertexByID(id) != nil {
		i, _ := x.leaves.Index(id)
		return ref{leaf: int32(i), lo: -1}
	}
	lo := len(x.ends)
	x.resolutions(g, id, port, len(x.vias), len(x.vias))
	return ref{lo: int32(lo), hi: int32(len(x.ends))}
}

// resolutions appends to x.ends every way the endpoint (id, port)
// resolves once the clusters of the chain x.vias[lo:hi] are selected:
// the leaf the flattening resolves it to under each selection. A
// cluster without a binding for the port ends no chain.
func (x *layout) resolutions(g *hgraph.Graph, id hgraph.ID, port string, lo, hi int) {
	if g.VertexByID(id) != nil {
		i, _ := x.leaves.Index(id)
		x.ends = append(x.ends, end{lo: int32(lo), hi: int32(hi), leaf: i})
		return
	}
	for _, sub := range g.InterfaceByID(id).Clusters {
		target, ok := sub.PortBinding[port]
		if !ok {
			continue
		}
		ci, _ := x.Clusters.Index(sub.ID)
		// The chain through sub: a copy of the current one, then sub.
		next := len(x.vias)
		x.vias = append(x.vias, x.vias[lo:hi]...)
		x.vias = append(x.vias, ci)
		x.resolutions(g, target, port, next, len(x.vias))
	}
}

// enumerate calls fn for every selection of the allocated clusters (a
// set over Clusters), in EnumerateArchSelections order: for each
// interface reachable from the root through selected clusters that has
// an allocated cluster, exactly one allocated cluster is selected;
// interfaces without one stay inactive. It stops when fn returns false.
// The set passed to fn is reused; clone it to retain.
func (x *layout) enumerate(allocated bitset.Set, fn func(sel bitset.Set) bool) {
	e := enumeration{x: x, allocated: allocated, sel: bitset.New(x.Clusters.Len()), fn: fn}
	e.sel.Add(x.root)
	e.agenda = append(e.agenda, x.scopes[x.root].ifaces)
	e.next()
}

// enumeration is one enumerate call's state. Its agenda is the
// interfaces still to decide, innermost cluster's last: the rest of one
// cluster's interfaces, then, before it, the rest of its parent's.
// Frames whose interfaces are all decided stay on it, empty.
type enumeration struct {
	x         *layout
	allocated bitset.Set
	sel       bitset.Set
	fn        func(bitset.Set) bool
	agenda    [][]int
}

// next decides the first interface of the agenda's innermost non-empty
// frame and recurses on the rest, calling fn once every frame is empty.
// It leaves the agenda as it found it: its length, its non-empty frames
// and, empty, the frames above its own, which the calls below it write.
func (e *enumeration) next() bool {
	l := len(e.agenda)
	n := l
	for n > 0 && len(e.agenda[n-1]) == 0 {
		n--
	}
	if n == 0 {
		return e.fn(e.sel)
	}
	frame := e.agenda[n-1]
	cont, active := true, false
	for _, c := range e.x.ifaces[frame[0]].clusters {
		if !e.allocated.Has(c) {
			continue
		}
		active = true
		e.sel.Add(c)
		e.agenda = append(e.agenda[:n-1], frame[1:], e.x.scopes[c].ifaces)
		cont = e.next()
		e.sel.Remove(c)
		if !cont {
			break
		}
	}
	if !active {
		e.agenda = append(e.agenda[:n-1], frame[1:])
		cont = e.next()
	}
	// The agenda's capacity never shrinks, so it still holds l frames.
	e.agenda = e.agenda[:l]
	e.agenda[n-1] = frame
	clear(e.agenda[n:])
	return cont
}

// Selection returns the selection set sel as a selection map: each
// selected cluster's interface mapped to it.
func (x *layout) Selection(sel bitset.Set) hgraph.Selection {
	m := make(hgraph.Selection, sel.Count())
	x.fill(m, sel)
	return m
}

// fill writes sel's entries into m.
func (x *layout) fill(m hgraph.Selection, sel bitset.Set) {
	sel.ForEach(func(c int) bool {
		if k := x.owner[c]; k >= 0 {
			m[x.ifaces[k].id] = x.Clusters.At(c)
		}
		return true
	})
}

// Configuration returns the selection set of a selection map: the root
// and the clusters the map selects on the interfaces reachable from the
// root through selected clusters, the part of a selection a flattening
// reads. It fails when such an interface selects a cluster it does not
// have.
func (x *layout) Configuration(m hgraph.Selection) (bitset.Set, error) {
	sel := bitset.New(x.Clusters.Len())
	sel.Add(x.root)
	var walk func(sc int) error
	walk = func(sc int) error {
		for _, k := range x.scopes[sc].ifaces {
			cid, ok := m[x.ifaces[k].id]
			if !ok {
				continue
			}
			i, ok := x.Clusters.Index(cid)
			if !ok || x.owner[i] != k {
				return fmt.Errorf("interface %q: selected cluster %q unknown", x.ifaces[k].id, cid)
			}
			sel.Add(i)
			if err := walk(i); err != nil {
				return err
			}
		}
		return nil
	}
	return sel, walk(x.root)
}

// walk calls fn on the scope of cluster sc and of every cluster sel
// selects below it, in depth-first graph order, until fn returns false.
// It reports whether fn never did.
func (x *layout) walk(sc int, sel bitset.Set, fn func(*scope) bool) bool {
	if !fn(&x.scopes[sc]) {
		return false
	}
	for _, k := range x.scopes[sc].ifaces {
		for _, c := range x.ifaces[k].clusters {
			if sel.Has(c) {
				if !x.walk(c, sel, fn) {
					return false
				}
				break
			}
		}
	}
	return true
}

// endpoint returns the leaf an endpoint reaches under sel, false when
// it reaches none: no resolution's chain is selected.
func (x *layout) endpoint(r ref, sel bitset.Set) (int, bool) {
	if r.lo < 0 {
		return int(r.leaf), true
	}
	for _, e := range x.ends[r.lo:r.hi] {
		if allOf(x.vias[e.lo:e.hi], sel) {
			return e.leaf, true
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
