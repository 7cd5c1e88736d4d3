package hgraph

import (
	"cmp"
	"fmt"
	"slices"
)

// Selection assigns to interfaces the cluster chosen to refine them
// (cluster selection in the paper). A selection needs entries only for
// interfaces that are active, i.e. reachable from the root through
// selected clusters. Selecting exactly one cluster per active interface
// corresponds to an elementary cluster selection; flattening such a
// selection yields a non-hierarchical graph.
type Selection map[ID]ID

// Clone returns a copy of the selection.
func (s Selection) Clone() Selection {
	c := make(Selection, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// String renders the selection deterministically (sorted by interface).
func (s Selection) String() string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, string(k))
	}
	slices.Sort(keys)
	out := "{"
	for i, k := range keys {
		if i > 0 {
			out += " "
		}
		out += k + "=" + string(s[ID(k)])
	}
	return out + "}"
}

// ActiveClusters returns the IDs of all clusters activated by the
// selection, always including the root (rule 2 of hierarchical
// activation: activating a cluster activates its content; the root is
// always activated). The result is sorted.
func (g *Graph) ActiveClusters(sel Selection) []ID {
	out := []ID{g.Root.ID}
	var walk func(c *Cluster)
	walk = func(c *Cluster) {
		for _, i := range c.Interfaces {
			cid, ok := sel[i.ID]
			if !ok {
				continue
			}
			if sub := i.Cluster(cid); sub != nil {
				out = append(out, sub.ID)
				walk(sub)
			}
		}
	}
	walk(g.Root)
	slices.Sort(out)
	return out
}

// Complete reports whether the selection assigns a valid cluster to
// every active interface.
func (g *Graph) Complete(sel Selection) bool {
	ok := true
	var walk func(c *Cluster)
	walk = func(c *Cluster) {
		for _, i := range c.Interfaces {
			cid, has := sel[i.ID]
			if !has {
				ok = false
				continue
			}
			sub := i.Cluster(cid)
			if sub == nil {
				ok = false
				continue
			}
			walk(sub)
		}
	}
	walk(g.Root)
	return ok
}

// EnumerateSelections calls fn for every elementary cluster selection
// (every complete selection) of the graph, in a deterministic order.
// The selection passed to fn is reused between calls; clone it if it
// must be retained. Enumeration stops early if fn returns false.
func (g *Graph) EnumerateSelections(fn func(Selection) bool) {
	sel := Selection{}
	g.enumCluster(g.Root, sel, func() bool { return fn(sel) })
}

// enumCluster enumerates selections for the interfaces of cluster c
// (and, nested, of the clusters those selections activate), then calls
// done. It returns false if enumeration should stop.
func (g *Graph) enumCluster(c *Cluster, sel Selection, done func() bool) bool {
	return g.enumInterfaces(c.Interfaces, 0, sel, done)
}

func (g *Graph) enumInterfaces(ifs []*Interface, k int, sel Selection, done func() bool) bool {
	if k == len(ifs) {
		return done()
	}
	i := ifs[k]
	for _, sub := range i.Clusters {
		sel[i.ID] = sub.ID
		cont := g.enumCluster(sub, sel, func() bool {
			return g.enumInterfaces(ifs, k+1, sel, done)
		})
		delete(sel, i.ID)
		if !cont {
			return false
		}
	}
	return true
}

// FlatEdge is a dependence edge of a flattened graph; interface
// endpoints of the original edge have been resolved through port
// bindings to leaf vertices.
type FlatEdge struct {
	From, To ID
	Orig     *Edge
}

// FlatGraph is the non-hierarchical graph obtained by flattening a
// hierarchical graph under an elementary cluster selection.
type FlatGraph struct {
	Name     string
	Vertices []*Vertex
	Edges    []FlatEdge

	succ map[ID][]ID
	pred map[ID][]ID
}

// Flatten resolves the hierarchy under the given selection: it
// activates the root's content and, for every active interface, the
// content of the selected cluster (hierarchical activation rules 1–2),
// and reroutes edges that attach to interface ports to the vertices the
// selected clusters bind those ports to. The selection must be complete.
func (g *Graph) Flatten(sel Selection) (*FlatGraph, error) {
	if !g.Complete(sel) {
		return nil, fmt.Errorf("hgraph %q: selection %v is not complete", g.Name, sel)
	}
	return g.flatten(sel, false)
}

// FlattenPartial flattens the graph under a possibly partial selection:
// interfaces without a selection entry are considered inactive and are
// dropped together with every edge attached to them. This models the
// architecture side of a specification, where a reconfigurable
// component (an interface) that is not part of the allocation simply
// does not exist in the implementation, whereas on the problem side
// rule 4 of hierarchical activation demands a complete selection (use
// Flatten there).
func (g *Graph) FlattenPartial(sel Selection) (*FlatGraph, error) {
	return g.flatten(sel, true)
}

// flatten collects the content of the root and of every selected
// cluster, then resolves each edge's endpoints to vertices. An edge
// whose endpoint reaches an interface without a selection entry, or a
// cluster without a binding for its port, is dropped when partial is
// set and an error otherwise.
func (g *Graph) flatten(sel Selection, partial bool) (*FlatGraph, error) {
	fg := &FlatGraph{Name: g.Name}
	var rawEdges []*Edge
	if err := g.collect(g.Root, sel, fg, &rawEdges); err != nil {
		return nil, err
	}
	for _, e := range rawEdges {
		from, ok, err := g.resolve(e.From, e.FromPort, sel, partial)
		if err != nil {
			return nil, fmt.Errorf("edge %q: %w", e.ID, err)
		}
		if !ok {
			continue
		}
		to, ok, err := g.resolve(e.To, e.ToPort, sel, partial)
		if err != nil {
			return nil, fmt.Errorf("edge %q: %w", e.ID, err)
		}
		if !ok {
			continue
		}
		fg.Edges = append(fg.Edges, FlatEdge{From: from, To: to, Orig: e})
	}
	slices.SortFunc(fg.Vertices, func(a, b *Vertex) int { return cmp.Compare(a.ID, b.ID) })
	slices.SortFunc(fg.Edges, func(a, b FlatEdge) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	return fg, nil
}

// collect appends c's vertices to fg and its edges to edges, then does
// the same for the cluster selected at each of c's interfaces; an
// interface without a selection entry is inactive and contributes
// nothing.
func (g *Graph) collect(c *Cluster, sel Selection, fg *FlatGraph, edges *[]*Edge) error {
	fg.Vertices = append(fg.Vertices, c.Vertices...)
	*edges = append(*edges, c.Edges...)
	for _, i := range c.Interfaces {
		cid, ok := sel[i.ID]
		if !ok {
			continue
		}
		sub := i.Cluster(cid)
		if sub == nil {
			return fmt.Errorf("interface %q: selected cluster %q unknown", i.ID, cid)
		}
		if err := g.collect(sub, sel, fg, edges); err != nil {
			return err
		}
	}
	return nil
}

// resolve maps an edge endpoint to a leaf vertex: vertex endpoints map
// to themselves, interface endpoints resolve through the selected
// cluster's port binding; when a binding targets a nested interface,
// resolution continues with the same port name on the nested
// interface. Reaching an interface without a selection entry, or a
// cluster without a binding for the port, reports ok=false (drop the
// edge) when partial is set and an error otherwise.
func (g *Graph) resolve(id ID, port string, sel Selection, partial bool) (ID, bool, error) {
	for {
		if g.VertexByID(id) != nil {
			return id, true, nil
		}
		iface := g.InterfaceByID(id)
		if iface == nil {
			return "", false, fmt.Errorf("endpoint %q is neither vertex nor interface", id)
		}
		cid, ok := sel[iface.ID]
		if !ok {
			if partial {
				return "", false, nil
			}
			return "", false, fmt.Errorf("interface %q unresolved in selection", id)
		}
		sub := iface.Cluster(cid)
		if sub == nil {
			return "", false, fmt.Errorf("interface %q: selected cluster %q unknown", id, cid)
		}
		target, ok := sub.PortBinding[port]
		if !ok {
			if partial {
				return "", false, nil
			}
			return "", false, fmt.Errorf("cluster %q: no binding for port %q", cid, port)
		}
		id = target
	}
}

// VertexByID returns the flat graph's vertex with the given ID, or nil.
func (fg *FlatGraph) VertexByID(id ID) *Vertex {
	for _, v := range fg.Vertices {
		if v.ID == id {
			return v
		}
	}
	return nil
}

func (fg *FlatGraph) buildAdjacency() {
	if fg.succ != nil {
		return
	}
	fg.succ = map[ID][]ID{}
	fg.pred = map[ID][]ID{}
	for _, e := range fg.Edges {
		fg.succ[e.From] = append(fg.succ[e.From], e.To)
		fg.pred[e.To] = append(fg.pred[e.To], e.From)
	}
}

// Successors returns the direct successors of a vertex.
func (fg *FlatGraph) Successors(id ID) []ID {
	fg.buildAdjacency()
	return fg.succ[id]
}

// Predecessors returns the direct predecessors of a vertex.
func (fg *FlatGraph) Predecessors(id ID) []ID {
	fg.buildAdjacency()
	return fg.pred[id]
}

// TopoSort returns a topological order of the flat graph's vertices or
// an error if the graph contains a dependence cycle. Ties are broken by
// vertex ID so the order is deterministic.
func (fg *FlatGraph) TopoSort() ([]*Vertex, error) {
	fg.buildAdjacency()
	indeg := map[ID]int{}
	for _, v := range fg.Vertices {
		indeg[v.ID] = 0
	}
	for _, e := range fg.Edges {
		indeg[e.To]++
	}
	var ready []ID
	for _, v := range fg.Vertices {
		if indeg[v.ID] == 0 {
			ready = append(ready, v.ID)
		}
	}
	slices.Sort(ready)
	var order []*Vertex
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		order = append(order, fg.VertexByID(id))
		next := append([]ID(nil), fg.succ[id]...)
		slices.Sort(next)
		for _, s := range next {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
		slices.Sort(ready)
	}
	if len(order) != len(fg.Vertices) {
		return nil, fmt.Errorf("flat graph %q contains a dependence cycle", fg.Name)
	}
	return order, nil
}

// IsAcyclic reports whether the flat graph is a DAG.
func (fg *FlatGraph) IsAcyclic() bool {
	_, err := fg.TopoSort()
	return err == nil
}
