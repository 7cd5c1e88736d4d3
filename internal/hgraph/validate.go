package hgraph

import (
	"cmp"
	"fmt"
	"slices"
)

// ProblemKind classifies a structural problem found by Problems. The
// kinds are stable so that tooling (package lint, CLIs) can map them to
// diagnostic codes without parsing messages.
type ProblemKind int

// Problem kinds.
const (
	// ProblemEmptyID: an element has an empty ID.
	ProblemEmptyID ProblemKind = iota
	// ProblemDuplicateID: two elements share one ID.
	ProblemDuplicateID
	// ProblemInterfaceNoCluster: an interface has no refining cluster.
	ProblemInterfaceNoCluster
	// ProblemDuplicatePort: an interface declares a port name twice.
	ProblemDuplicatePort
	// ProblemEdgeEndpoint: an edge references a node that is not
	// directly contained in its cluster.
	ProblemEdgeEndpoint
	// ProblemEdgePort: an edge endpoint names a missing port, omits a
	// required port, or names a port on a plain vertex.
	ProblemEdgePort
	// ProblemPortBinding: a cluster's port binding is missing, targets a
	// non-internal node, or binds an undeclared port.
	ProblemPortBinding
)

// String implements fmt.Stringer.
func (k ProblemKind) String() string {
	switch k {
	case ProblemEmptyID:
		return "empty-id"
	case ProblemDuplicateID:
		return "duplicate-id"
	case ProblemInterfaceNoCluster:
		return "interface-no-cluster"
	case ProblemDuplicatePort:
		return "duplicate-port"
	case ProblemEdgeEndpoint:
		return "edge-endpoint"
	case ProblemEdgePort:
		return "edge-port"
	case ProblemPortBinding:
		return "port-binding"
	default:
		return fmt.Sprintf("ProblemKind(%d)", int(k))
	}
}

// Problem is one structural well-formedness violation.
type Problem struct {
	Kind ProblemKind
	// Element is the most specific element involved (the edge, the
	// interface, the cluster); empty when the element itself has no ID.
	Element ID
	Message string
}

func (p Problem) String() string { return p.Message }

// Problems checks structural well-formedness of the hierarchical graph
// and returns every violation found:
//
//   - IDs are globally unique across vertices, interfaces, clusters and
//     edges at all levels;
//   - every interface has at least one refining cluster;
//   - edges reference nodes contained directly in the same cluster;
//   - edges attaching to an interface name one of its declared ports
//     (vertex endpoints must not name a port);
//   - every cluster refining an interface binds each of the interface's
//     ports to one of its internal nodes.
//
// The result is sorted by message for determinism; an empty result
// means the graph is well-formed.
func (g *Graph) Problems() []Problem {
	var probs []Problem
	add := func(kind ProblemKind, elem ID, format string, args ...any) {
		probs = append(probs, Problem{Kind: kind, Element: elem, Message: fmt.Sprintf(format, args...)})
	}
	seen := make(map[ID]string, countElements(g.Root))
	claim := func(id ID, kind string) {
		if id == "" {
			add(ProblemEmptyID, "", "%s with empty ID", kind)
			return
		}
		if prev, dup := seen[id]; dup {
			add(ProblemDuplicateID, id, "duplicate ID %q (%s and %s)", id, prev, kind)
			return
		}
		seen[id] = kind
	}

	// local holds the nodes of the cluster being walked, portNames the
	// ports of the interface being walked. One map of each serves every
	// cluster and interface: a cluster's edges are checked before its
	// subclusters are walked.
	local := map[ID]any{}
	portNames := map[string]bool{}
	var walk func(c *Cluster, owner *Interface)
	walk = func(c *Cluster, owner *Interface) {
		claim(c.ID, "cluster")
		clear(local)
		for _, v := range c.Vertices {
			claim(v.ID, "vertex")
			local[v.ID] = v
		}
		for _, i := range c.Interfaces {
			claim(i.ID, "interface")
			local[i.ID] = i
			if len(i.Clusters) == 0 {
				add(ProblemInterfaceNoCluster, i.ID, "interface %q has no refining cluster", i.ID)
			}
			clear(portNames)
			for _, p := range i.Ports {
				if portNames[p.Name] {
					add(ProblemDuplicatePort, i.ID, "interface %q declares port %q twice", i.ID, p.Name)
				}
				portNames[p.Name] = true
			}
		}
		for _, e := range c.Edges {
			claim(e.ID, "edge")
			validateEndpoint(c, local, e, e.From, e.FromPort, "source", add)
			validateEndpoint(c, local, e, e.To, e.ToPort, "target", add)
		}
		for _, i := range c.Interfaces {
			for _, sub := range i.Clusters {
				validatePortBinding(i, sub, add)
				walk(sub, i)
			}
		}
		_ = owner
	}
	walk(g.Root, nil)

	slices.SortStableFunc(probs, func(a, b Problem) int { return cmp.Compare(a.Message, b.Message) })
	return probs
}

// countElements counts the clusters, vertices, interfaces and edges at
// and below c: the IDs Problems claims.
func countElements(c *Cluster) int {
	n := 1 + len(c.Vertices) + len(c.Interfaces) + len(c.Edges)
	for _, i := range c.Interfaces {
		for _, sub := range i.Clusters {
			n += countElements(sub)
		}
	}
	return n
}

// Validate checks structural well-formedness (see Problems) and returns
// the first group of problems found as a single error, or nil.
func (g *Graph) Validate() error {
	probs := g.Problems()
	if len(probs) > 0 {
		return fmt.Errorf("hgraph %q: %d problem(s): %s", g.Name, len(probs), probs[0].Message)
	}
	return nil
}

func validateEndpoint(c *Cluster, local map[ID]any, e *Edge, id ID, port, role string, add func(ProblemKind, ID, string, ...any)) {
	node, ok := local[id]
	if !ok {
		add(ProblemEdgeEndpoint, e.ID, "edge %q: %s %q is not a node of cluster %q", e.ID, role, id, c.ID)
		return
	}
	switch n := node.(type) {
	case *Interface:
		if port == "" {
			add(ProblemEdgePort, e.ID, "edge %q: %s interface %q requires a port name", e.ID, role, id)
		} else if n.Port(port) == nil {
			add(ProblemEdgePort, e.ID, "edge %q: interface %q has no port %q", e.ID, id, port)
		}
	case *Vertex:
		if port != "" {
			add(ProblemEdgePort, e.ID, "edge %q: vertex %s endpoint %q must not name a port", e.ID, role, id)
		}
	}
}

func validatePortBinding(i *Interface, c *Cluster, add func(ProblemKind, ID, string, ...any)) {
	for _, p := range i.Ports {
		target, ok := c.PortBinding[p.Name]
		if !ok {
			add(ProblemPortBinding, c.ID, "cluster %q: missing binding for port %q of interface %q", c.ID, p.Name, i.ID)
			continue
		}
		if c.Vertex(target) == nil && c.Interface(target) == nil {
			add(ProblemPortBinding, c.ID, "cluster %q: port %q bound to %q which is not an internal node", c.ID, p.Name, target)
		}
	}
	for name := range c.PortBinding {
		if i.Port(name) == nil {
			add(ProblemPortBinding, c.ID, "cluster %q: binding for undeclared port %q of interface %q", c.ID, name, i.ID)
		}
	}
}
