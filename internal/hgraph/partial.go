package hgraph

import (
	"cmp"
	"fmt"
	"slices"
)

// FlattenPartial flattens the graph under a possibly partial selection:
// interfaces without a selection entry are considered inactive and are
// dropped together with every edge attached to them. This models the
// architecture side of a specification, where a reconfigurable
// component (an interface) that is not part of the allocation simply
// does not exist in the implementation, whereas on the problem side
// rule 4 of hierarchical activation demands a complete selection (use
// Flatten there).
func (g *Graph) FlattenPartial(sel Selection) (*FlatGraph, error) {
	fg := &FlatGraph{Name: g.Name}
	var rawEdges []*Edge
	var walk func(c *Cluster) error
	walk = func(c *Cluster) error {
		fg.Vertices = append(fg.Vertices, c.Vertices...)
		rawEdges = append(rawEdges, c.Edges...)
		for _, i := range c.Interfaces {
			cid, ok := sel[i.ID]
			if !ok {
				continue // inactive interface: dropped
			}
			sub := i.Cluster(cid)
			if sub == nil {
				return fmt.Errorf("interface %q: selected cluster %q unknown", i.ID, cid)
			}
			if err := walk(sub); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(g.Root); err != nil {
		return nil, err
	}

	for _, e := range rawEdges {
		from, ok, err := g.resolvePartial(e.From, e.FromPort, sel)
		if err != nil {
			return nil, fmt.Errorf("edge %q: %w", e.ID, err)
		}
		if !ok {
			continue
		}
		to, ok, err := g.resolvePartial(e.To, e.ToPort, sel)
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

// resolvePartial resolves an endpoint like resolveEndpoint but reports
// ok=false (drop the edge) when resolution reaches an inactive
// interface or a missing port binding.
func (g *Graph) resolvePartial(id ID, port string, sel Selection) (ID, bool, error) {
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
			return "", false, nil
		}
		sub := iface.Cluster(cid)
		if sub == nil {
			return "", false, fmt.Errorf("interface %q: selected cluster %q unknown", id, cid)
		}
		target, ok := sub.PortBinding[port]
		if !ok {
			return "", false, nil
		}
		id = target
	}
}
