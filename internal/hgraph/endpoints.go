package hgraph

import "slices"

// EndpointLeaves returns every leaf vertex an edge endpoint can resolve
// to across all cluster selections: a vertex endpoint resolves to
// itself; an interface endpoint resolves, for each refining cluster,
// through that cluster's binding of the named port (recursively, when
// the binding targets a nested interface, with the same port name —
// mirroring Flatten's resolution, but without fixing a selection).
//
// Unknown IDs, missing bindings and binding cycles contribute nothing;
// the function is therefore safe on graphs that fail Validate and is
// the substrate for whole-hierarchy reachability analyses (package
// lint). The result is sorted and duplicate-free.
func (g *Graph) EndpointLeaves(id ID, port string) []ID {
	set := map[ID]bool{}
	seen := map[[2]ID]bool{} // (interface, port-target) pairs on the current path
	var resolve func(id ID, port string)
	resolve = func(id ID, port string) {
		if g.VertexByID(id) != nil {
			set[id] = true
			return
		}
		iface := g.InterfaceByID(id)
		if iface == nil {
			return
		}
		for _, sub := range iface.Clusters {
			target, ok := sub.PortBinding[port]
			if !ok {
				continue
			}
			key := [2]ID{iface.ID, target}
			if seen[key] {
				continue
			}
			seen[key] = true
			resolve(target, port)
			delete(seen, key)
		}
	}
	resolve(id, port)
	out := make([]ID, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}
