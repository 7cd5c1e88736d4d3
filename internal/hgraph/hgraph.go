// Package hgraph implements the hierarchical graph model of Definition 1
// in "System Design for Flexibility" (Haubelt, Teich, Richter, Ernst;
// DATE 2002).
//
// A hierarchical graph G = (V, E, Ψ, Γ) consists of ordinary vertices V,
// edges E, interfaces Ψ (hierarchical vertices) and clusters Γ
// (subgraphs). Every interface is refined by one or more alternative
// clusters; selecting exactly one cluster per activated interface yields
// a flat (non-hierarchical) graph. Interfaces expose ports; a cluster
// embedded into an interface binds each port of that interface to one of
// its internal nodes (the paper's "port mapping").
//
// The package is the substrate for both the problem graph and the
// architecture graph of a specification graph (package spec) and is
// deliberately generic: nodes carry free-form numeric attributes so that
// higher layers can annotate costs, latencies and periods.
package hgraph

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/bitset"
)

// ID identifies a vertex, edge, interface or cluster. IDs must be unique
// across the whole hierarchical graph (all levels), which permits global
// indexing and makes selections and activations unambiguous.
type ID string

// Attrs carries free-form numeric annotations (cost, latency, period,
// priority, power, ...). A nil Attrs behaves like an empty one through
// the Get accessor.
type Attrs map[string]float64

// Get returns the attribute value and whether it is present. It is safe
// to call on a nil map.
func (a Attrs) Get(key string) (float64, bool) {
	v, ok := a[key]
	return v, ok
}

// GetDefault returns the attribute value or def when absent.
func (a Attrs) GetDefault(key string, def float64) float64 {
	if v, ok := a[key]; ok {
		return v
	}
	return def
}

// Clone returns a deep copy of the attribute map (nil stays nil).
func (a Attrs) Clone() Attrs {
	if a == nil {
		return nil
	}
	c := make(Attrs, len(a))
	for k, v := range a {
		c[k] = v
	}
	return c
}

// Direction describes the orientation of an interface port.
type Direction int

// Port directions.
const (
	In Direction = iota
	Out
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case In:
		return "in"
	case Out:
		return "out"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Port is a named connection point of an interface. Edges of the parent
// cluster attach to interface ports; clusters refining the interface
// bind every port to one of their internal nodes.
type Port struct {
	Name string
	Dir  Direction
}

// Vertex is a non-hierarchical node: a process or communication operation
// in a problem graph, or a functional/communication resource in an
// architecture graph.
type Vertex struct {
	ID    ID
	Name  string
	Attrs Attrs
}

// String implements fmt.Stringer.
func (v *Vertex) String() string { return string(v.ID) }

// Edge connects two nodes of the same cluster scope. Endpoints may be
// vertices or interfaces; when an endpoint is an interface the FromPort
// or ToPort names which port of the interface the edge attaches to.
type Edge struct {
	ID       ID
	From     ID
	To       ID
	FromPort string
	ToPort   string
	Attrs    Attrs
}

// String implements fmt.Stringer.
func (e *Edge) String() string { return fmt.Sprintf("%s->%s", e.From, e.To) }

// Interface is a hierarchical vertex ψ ∈ Ψ. It is refined by one or more
// alternative clusters; the process of cluster selection picks exactly
// one of them at each instant of time.
type Interface struct {
	ID       ID
	Name     string
	Ports    []Port
	Clusters []*Cluster
	Attrs    Attrs
}

// String implements fmt.Stringer.
func (i *Interface) String() string { return string(i.ID) }

// Port returns the port with the given name, or nil.
func (i *Interface) Port(name string) *Port {
	for k := range i.Ports {
		if i.Ports[k].Name == name {
			return &i.Ports[k]
		}
	}
	return nil
}

// Cluster returns the refining cluster with the given ID, or nil.
func (i *Interface) Cluster(id ID) *Cluster {
	for _, c := range i.Clusters {
		if c.ID == id {
			return c
		}
	}
	return nil
}

// Cluster is a subgraph γ ∈ Γ: an alternative refinement of an
// interface. Clusters are defined in analogy to hierarchical graphs and
// may themselves contain interfaces, giving arbitrary nesting depth.
type Cluster struct {
	ID         ID
	Name       string
	Vertices   []*Vertex
	Interfaces []*Interface
	Edges      []*Edge
	// PortBinding implements the paper's port mapping: it maps each
	// port name of the owning interface to an internal node (vertex or
	// interface) of this cluster. For a nested interface target the
	// binding resolves further through that interface's selected
	// cluster during flattening.
	PortBinding map[string]ID
	Attrs       Attrs
}

// String implements fmt.Stringer.
func (c *Cluster) String() string { return string(c.ID) }

// Vertex returns the directly contained vertex with the given ID, or nil.
func (c *Cluster) Vertex(id ID) *Vertex {
	for _, v := range c.Vertices {
		if v.ID == id {
			return v
		}
	}
	return nil
}

// Interface returns the directly contained interface with the given ID,
// or nil.
func (c *Cluster) Interface(id ID) *Interface {
	for _, i := range c.Interfaces {
		if i.ID == id {
			return i
		}
	}
	return nil
}

// Graph is a hierarchical graph. The top level is itself represented as
// a cluster (Root), mirroring the paper's observation that clusters are
// defined in analogy to hierarchical graphs; Root is always considered
// activated (a⁺(Root) = 1 corresponds to a⁺(G_P) in the paper's
// flexibility equation).
type Graph struct {
	Name string
	Root *Cluster

	idx *index
}

// New creates a hierarchical graph around the given root cluster and
// validates it. It returns an error if validation fails.
func New(name string, root *Cluster) (*Graph, error) {
	g := &Graph{Name: name, Root: root}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	g.buildIndex()
	return g, nil
}

// MustNew is like New but panics on validation errors. It is intended
// for statically known models (e.g. the paper's case studies and tests).
func MustNew(name string, root *Cluster) *Graph {
	g, err := New(name, root)
	if err != nil {
		panic(fmt.Sprintf("hgraph: invalid graph %q: %v", name, err))
	}
	return g
}

// index provides O(1) global lookup of every element of the graph.
type index struct {
	vertices   map[ID]*Vertex
	interfaces map[ID]*Interface
	clusters   map[ID]*Cluster
	edges      map[ID]*Edge
	// parentCluster maps a vertex/interface/edge ID to the cluster that
	// directly contains it; Root maps to "".
	parentCluster map[ID]*Cluster
	// owner maps a cluster ID to the interface it refines (nil for Root).
	owner map[ID]*Interface
	// leaves indexes Leaves(), built on first use.
	leavesOnce sync.Once
	leaves     *bitset.Indexer[ID]
}

func (g *Graph) buildIndex() {
	ix := &index{
		vertices:      make(map[ID]*Vertex),
		interfaces:    make(map[ID]*Interface),
		clusters:      make(map[ID]*Cluster),
		edges:         make(map[ID]*Edge),
		parentCluster: make(map[ID]*Cluster),
		owner:         make(map[ID]*Interface),
	}
	var walk func(c *Cluster, owner *Interface)
	walk = func(c *Cluster, owner *Interface) {
		ix.clusters[c.ID] = c
		if owner != nil {
			ix.owner[c.ID] = owner
		}
		for _, v := range c.Vertices {
			ix.vertices[v.ID] = v
			ix.parentCluster[v.ID] = c
		}
		for _, e := range c.Edges {
			ix.edges[e.ID] = e
			ix.parentCluster[e.ID] = c
		}
		for _, i := range c.Interfaces {
			ix.interfaces[i.ID] = i
			ix.parentCluster[i.ID] = c
			for _, sub := range i.Clusters {
				walk(sub, i)
			}
		}
	}
	walk(g.Root, nil)
	g.idx = ix
}

func (g *Graph) ensureIndex() *index {
	if g.idx == nil {
		g.buildIndex()
	}
	return g.idx
}

// VertexByID returns the vertex with the given ID anywhere in the
// hierarchy, or nil.
func (g *Graph) VertexByID(id ID) *Vertex { return g.ensureIndex().vertices[id] }

// InterfaceByID returns the interface with the given ID anywhere in the
// hierarchy, or nil.
func (g *Graph) InterfaceByID(id ID) *Interface { return g.ensureIndex().interfaces[id] }

// ClusterByID returns the cluster with the given ID anywhere in the
// hierarchy, or nil. The root cluster is included.
func (g *Graph) ClusterByID(id ID) *Cluster { return g.ensureIndex().clusters[id] }

// ParentCluster returns the cluster that directly contains the element
// with the given ID (vertex, interface or edge), or nil for unknown IDs
// and for the root cluster itself.
func (g *Graph) ParentCluster(id ID) *Cluster { return g.ensureIndex().parentCluster[id] }

// OwnerInterface returns the interface refined by the cluster with the
// given ID, or nil for the root cluster and unknown IDs.
func (g *Graph) OwnerInterface(clusterID ID) *Interface { return g.ensureIndex().owner[clusterID] }

// Has reports whether any element (vertex, interface, cluster or edge)
// with the given ID exists in the graph.
func (g *Graph) Has(id ID) bool {
	ix := g.ensureIndex()
	if _, ok := ix.vertices[id]; ok {
		return true
	}
	if _, ok := ix.interfaces[id]; ok {
		return true
	}
	if _, ok := ix.clusters[id]; ok {
		return true
	}
	_, ok := ix.edges[id]
	return ok
}

// LeafIndexer returns the dense index of the graph's leaves, in sorted
// ID order. It is built once per graph state: a mutation (AddCluster,
// RemoveCluster) discards it together with the rest of the lookup
// index. Bitsets over it are how the exploration engine holds resource
// sets of an architecture graph.
func (g *Graph) LeafIndexer() *bitset.Indexer[ID] {
	ix := g.ensureIndex()
	ix.leavesOnce.Do(func() {
		leaves := g.Leaves()
		ids := make([]ID, len(leaves))
		for i, v := range leaves {
			ids[i] = v.ID
		}
		ix.leaves = bitset.NewIndexer(ids)
	})
	return ix.leaves
}

// Leaves returns the set of leaves V_l(G) of the hierarchical graph per
// Equation (1) of the paper: all non-hierarchical vertices of the root
// plus, recursively, the leaves of every cluster of every interface.
// The result is sorted by ID for determinism.
func (g *Graph) Leaves() []*Vertex {
	var out []*Vertex
	var walk func(c *Cluster)
	walk = func(c *Cluster) {
		out = append(out, c.Vertices...)
		for _, i := range c.Interfaces {
			for _, sub := range i.Clusters {
				walk(sub)
			}
		}
	}
	walk(g.Root)
	slices.SortFunc(out, func(a, b *Vertex) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// LeavesOf returns the leaves of a single cluster (Eq. 1 applied to γ).
func (g *Graph) LeavesOf(c *Cluster) []*Vertex {
	sub := &Graph{Name: string(c.ID), Root: c}
	return sub.Leaves()
}

// Clusters returns every cluster of the graph including the root,
// sorted by ID.
func (g *Graph) Clusters() []*Cluster {
	ix := g.ensureIndex()
	out := make([]*Cluster, 0, len(ix.clusters))
	for _, c := range ix.clusters {
		out = append(out, c)
	}
	slices.SortFunc(out, func(a, b *Cluster) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// Interfaces returns every interface of the graph at any depth, sorted
// by ID.
func (g *Graph) Interfaces() []*Interface {
	ix := g.ensureIndex()
	out := make([]*Interface, 0, len(ix.interfaces))
	for _, i := range ix.interfaces {
		out = append(out, i)
	}
	slices.SortFunc(out, func(a, b *Interface) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// Edges returns every edge of the graph at any depth, sorted by ID.
func (g *Graph) Edges() []*Edge {
	ix := g.ensureIndex()
	out := make([]*Edge, 0, len(ix.edges))
	for _, e := range ix.edges {
		out = append(out, e)
	}
	slices.SortFunc(out, func(a, b *Edge) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// ElementCount returns |V_S|-style element counts: the number of
// non-hierarchical vertices, interfaces, clusters (excluding the root)
// and edges of the graph. The paper's 2^|V_S| search-space headline uses
// vertices+interfaces+clusters.
func (g *Graph) ElementCount() (vertices, interfaces, clusters, edges int) {
	ix := g.ensureIndex()
	return len(ix.vertices), len(ix.interfaces), len(ix.clusters) - 1, len(ix.edges)
}

// Depth returns the maximum nesting depth of the hierarchy; a graph
// without interfaces has depth 0.
func (g *Graph) Depth() int {
	var depth func(c *Cluster) int
	depth = func(c *Cluster) int {
		max := 0
		for _, i := range c.Interfaces {
			for _, sub := range i.Clusters {
				if d := 1 + depth(sub); d > max {
					max = d
				}
			}
		}
		return max
	}
	return depth(g.Root)
}

// Clone returns a deep copy of the graph. The copy shares no mutable
// state with the original.
func (g *Graph) Clone() *Graph {
	return &Graph{Name: g.Name, Root: cloneCluster(g.Root)}
}

func cloneCluster(c *Cluster) *Cluster {
	nc := &Cluster{ID: c.ID, Name: c.Name, Attrs: c.Attrs.Clone()}
	for _, v := range c.Vertices {
		nc.Vertices = append(nc.Vertices, &Vertex{ID: v.ID, Name: v.Name, Attrs: v.Attrs.Clone()})
	}
	for _, e := range c.Edges {
		ne := *e
		ne.Attrs = e.Attrs.Clone()
		nc.Edges = append(nc.Edges, &ne)
	}
	for _, i := range c.Interfaces {
		ni := &Interface{ID: i.ID, Name: i.Name, Attrs: i.Attrs.Clone()}
		ni.Ports = append(ni.Ports, i.Ports...)
		for _, sub := range i.Clusters {
			ni.Clusters = append(ni.Clusters, cloneCluster(sub))
		}
		nc.Interfaces = append(nc.Interfaces, ni)
	}
	if c.PortBinding != nil {
		nc.PortBinding = make(map[string]ID, len(c.PortBinding))
		for k, v := range c.PortBinding {
			nc.PortBinding[k] = v
		}
	}
	return nc
}

// CountVariants returns the number of distinct fully flattened variants
// of the graph, i.e. the number of elementary cluster selections. For a
// cluster it is the product over its interfaces of the sum over the
// interface's clusters of their variant counts.
func (g *Graph) CountVariants() int {
	return countVariants(g.Root)
}

func countVariants(c *Cluster) int {
	prod := 1
	for _, i := range c.Interfaces {
		sum := 0
		for _, sub := range i.Clusters {
			sum += countVariants(sub)
		}
		prod *= sum
	}
	return prod
}
