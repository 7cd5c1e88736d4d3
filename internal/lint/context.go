package lint

import (
	"sync"

	"repro/internal/alloc"
	"repro/internal/hgraph"
	"repro/internal/spec"
)

// Context carries the specification under analysis plus the shared
// facts passes need. It is built once per Engine.Run; every computation
// here must tolerate specifications that fail Validate.
type Context struct {
	Spec *spec.Spec

	// ProblemIssues and ArchIssues are the structural well-formedness
	// problems of the two graphs (hgraph.Problems).
	ProblemIssues []hgraph.Problem
	ArchIssues    []hgraph.Problem

	// ProblemLeaves and ArchLeaves are the leaf vertices of the graphs.
	ProblemLeaves []*hgraph.Vertex
	ArchLeaves    []*hgraph.Vertex

	// Units are the allocatable architecture units (top-level leaves and
	// clusters of top-level interfaces).
	Units []alloc.Unit

	// ArchAdj is the union communication adjacency over architecture
	// leaves: two leaves are adjacent when some edge, under some cluster
	// selection, links them (interface endpoints resolved through port
	// bindings of every refining cluster). It over-approximates any
	// single instantaneous configuration, which is the safe direction
	// for error-severity findings.
	ArchAdj map[hgraph.ID]map[hgraph.ID]bool

	archLeafSet map[hgraph.ID]bool
	// problemPaths and archPaths map element IDs to their paths. Each is
	// built on the first path asked of its graph: a clean specification
	// asks none.
	problemOnce, archOnce   sync.Once
	problemPaths, archPaths map[hgraph.ID]string
}

func newContext(s *spec.Spec) *Context {
	ctx := &Context{
		Spec:          s,
		ProblemIssues: s.Problem.Problems(),
		ArchIssues:    s.Arch.Problems(),
		ProblemLeaves: s.Problem.Leaves(),
		ArchLeaves:    s.Arch.Leaves(),
		Units:         alloc.Units(s),
		ArchAdj:       map[hgraph.ID]map[hgraph.ID]bool{},
		archLeafSet:   map[hgraph.ID]bool{},
	}
	for _, v := range ctx.ArchLeaves {
		ctx.archLeafSet[v.ID] = true
	}
	link := func(a, b hgraph.ID) {
		if ctx.ArchAdj[a] == nil {
			ctx.ArchAdj[a] = map[hgraph.ID]bool{}
		}
		ctx.ArchAdj[a][b] = true
	}
	for _, e := range s.Arch.Edges() {
		for _, x := range s.Arch.EndpointLeaves(e.From, e.FromPort) {
			for _, y := range s.Arch.EndpointLeaves(e.To, e.ToPort) {
				link(x, y)
				link(y, x)
			}
		}
	}
	return ctx
}

// IsArchLeaf reports whether id names an architecture leaf vertex.
func (ctx *Context) IsArchLeaf(id hgraph.ID) bool { return ctx.archLeafSet[id] }

// ValidMappings returns the mapping edges of a process whose resource
// actually is an architecture leaf — on lenient specs, mappings onto
// unknown elements (reported by SL010) are excluded so downstream
// passes reason only about usable edges.
func (ctx *Context) ValidMappings(process hgraph.ID) []*spec.Mapping {
	var out []*spec.Mapping
	for _, m := range ctx.Spec.MappingsFor(process) {
		if ctx.archLeafSet[m.Resource] {
			out = append(out, m)
		}
	}
	return out
}

// CandidateResources returns the architecture leaves a process can be
// mapped onto (the paper's reachable resource set R_ij), sorted.
func (ctx *Context) CandidateResources(process hgraph.ID) []hgraph.ID {
	ms := ctx.ValidMappings(process)
	out := make([]hgraph.ID, 0, len(ms))
	for _, m := range ms {
		out = append(out, m.Resource)
	}
	return out
}

// CanEverCommunicate reports whether operations bound to r1 and r2
// could ever exchange data in some configuration: same resource, a
// direct link, or a one-hop route through a communication resource.
func (ctx *Context) CanEverCommunicate(r1, r2 hgraph.ID) bool {
	if r1 == r2 {
		return true
	}
	if ctx.ArchAdj[r1][r2] {
		return true
	}
	for b := range ctx.ArchAdj[r1] {
		if ctx.Spec.IsComm(b) && ctx.ArchAdj[b][r2] {
			return true
		}
	}
	return false
}

// ProblemPath returns the hierarchical path of a problem-graph element.
func (ctx *Context) ProblemPath(id hgraph.ID) string {
	ctx.problemOnce.Do(func() { ctx.problemPaths = elementPaths("problem", ctx.Spec.Problem) })
	if p, ok := ctx.problemPaths[id]; ok {
		return p
	}
	return "problem/" + string(id)
}

// ArchPath returns the hierarchical path of an architecture element.
func (ctx *Context) ArchPath(id hgraph.ID) string {
	ctx.archOnce.Do(func() { ctx.archPaths = elementPaths("arch", ctx.Spec.Arch) })
	if p, ok := ctx.archPaths[id]; ok {
		return p
	}
	return "arch/" + string(id)
}

// MappingPath returns the element path of a mapping edge.
func MappingPath(m *spec.Mapping) string {
	return "mapping/" + string(m.Process) + "=>" + string(m.Resource)
}

// elementPaths maps every element ID to its slash-separated path from
// the graph label through the cluster/interface hierarchy. On duplicate
// IDs the first (outermost) occurrence wins.
func elementPaths(label string, g *hgraph.Graph) map[hgraph.ID]string {
	paths := map[hgraph.ID]string{}
	put := func(id hgraph.ID, p string) {
		if _, dup := paths[id]; !dup && id != "" {
			paths[id] = p
		}
	}
	var walk func(c *hgraph.Cluster, prefix string)
	walk = func(c *hgraph.Cluster, prefix string) {
		cp := prefix + "/" + string(c.ID)
		put(c.ID, cp)
		for _, v := range c.Vertices {
			put(v.ID, cp+"/"+string(v.ID))
		}
		for _, e := range c.Edges {
			put(e.ID, cp+"/"+string(e.ID))
		}
		for _, i := range c.Interfaces {
			ip := cp + "/" + string(i.ID)
			put(i.ID, ip)
			for _, sub := range i.Clusters {
				walk(sub, ip)
			}
		}
	}
	walk(g.Root, label)
	return paths
}
