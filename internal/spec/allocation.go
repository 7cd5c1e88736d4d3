package spec

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/hgraph"
)

// Allocation is a (time-invariant) resource allocation: the set of
// architecture elements that are activated at some time during system
// operation. Per the paper's possible-resource-allocation construction,
// its members are leaves of the top-level architecture graph and whole
// architecture clusters (e.g. FPGA designs); allocating a cluster
// allocates the resources it contains.
//
// Note that an allocation may contain several clusters of the same
// architecture interface: with time-variant activation the interface
// switches between them (reconfiguration); at each instant exactly one
// is active.
type Allocation map[hgraph.ID]bool

// NewAllocation builds an allocation from element IDs.
func NewAllocation(ids ...hgraph.ID) Allocation {
	a := make(Allocation, len(ids))
	for _, id := range ids {
		a[id] = true
	}
	return a
}

// Clone returns a copy of the allocation.
func (a Allocation) Clone() Allocation {
	c := make(Allocation, len(a))
	for k := range a {
		c[k] = true
	}
	return c
}

// IDs returns the allocated element IDs, sorted.
func (a Allocation) IDs() []hgraph.ID {
	out := make([]hgraph.ID, 0, len(a))
	for id := range a {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the allocation deterministically, e.g. "{C1 G1 uP2}".
func (a Allocation) String() string {
	ids := a.IDs()
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = string(id)
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// Equal reports whether two allocations contain the same elements.
func (a Allocation) Equal(b Allocation) bool {
	if len(a) != len(b) {
		return false
	}
	for id := range a {
		if !b[id] {
			return false
		}
	}
	return true
}

// Subset reports whether a ⊆ b.
func (a Allocation) Subset(b Allocation) bool {
	for id := range a {
		if !b[id] {
			return false
		}
	}
	return true
}

// Cost returns the allocation cost c_impl: the sum of the realization
// costs of all allocated elements. For an allocated cluster this is the
// cluster's own cost attribute plus the costs of all leaf resources it
// contains. The elements are summed in sorted-ID order, so fractional
// costs round the same way on every call.
func (a Allocation) Cost(s *Spec) float64 {
	var buf [16]hgraph.ID
	ids := buf[:0]
	for id := range a {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	total := 0.0
	for _, id := range ids {
		if v := s.Arch.VertexByID(id); v != nil {
			total += v.Attrs.GetDefault(AttrCost, 0)
			continue
		}
		if c := s.Arch.ClusterByID(id); c != nil {
			total += c.Attrs.GetDefault(AttrCost, 0)
			for _, lv := range s.Arch.LeavesOf(c) {
				total += lv.Attrs.GetDefault(AttrCost, 0)
			}
		}
	}
	return total
}

// Resources returns all architecture leaf vertices made available by
// the allocation: directly allocated top-level leaves plus the leaves
// of every allocated cluster. Sorted by ID.
func (a Allocation) Resources(s *Spec) []hgraph.ID {
	set := map[hgraph.ID]bool{}
	for id := range a {
		if v := s.Arch.VertexByID(id); v != nil {
			set[v.ID] = true
			continue
		}
		if c := s.Arch.ClusterByID(id); c != nil {
			for _, lv := range s.Arch.LeavesOf(c) {
				set[lv.ID] = true
			}
		}
	}
	out := make([]hgraph.ID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ResourceSet is Resources as a set.
func (a Allocation) ResourceSet(s *Spec) map[hgraph.ID]bool {
	set := map[hgraph.ID]bool{}
	for _, id := range a.Resources(s) {
		set[id] = true
	}
	return set
}

// AllocatedClusters returns the allocated architecture clusters grouped
// by their owning interface, considering only clusters whose owning
// interface is reachable (nested clusters under unallocated parents are
// ignored). Interfaces with no allocated cluster are absent.
func (a Allocation) AllocatedClusters(s *Spec) map[hgraph.ID][]hgraph.ID {
	out := map[hgraph.ID][]hgraph.ID{}
	var walk func(c *hgraph.Cluster)
	walk = func(c *hgraph.Cluster) {
		for _, i := range c.Interfaces {
			for _, sub := range i.Clusters {
				if a[sub.ID] {
					out[i.ID] = append(out[i.ID], sub.ID)
					walk(sub)
				}
			}
		}
	}
	walk(s.Arch.Root)
	for _, cs := range out {
		sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
	}
	return out
}

// EnumerateArchSelections calls fn for every instantaneous architecture
// configuration consistent with the allocation: for each reachable
// architecture interface that has at least one allocated cluster,
// exactly one allocated cluster is selected; interfaces without an
// allocated cluster stay inactive. Enumeration stops when fn returns
// false. The selection passed to fn is reused; clone to retain.
func (a Allocation) EnumerateArchSelections(s *Spec, fn func(hgraph.Selection) bool) {
	sel := hgraph.Selection{}
	var enumIfs func(ifs []*hgraph.Interface, k int, done func() bool) bool
	var enumCluster func(c *hgraph.Cluster, done func() bool) bool
	enumCluster = func(c *hgraph.Cluster, done func() bool) bool {
		return enumIfs(c.Interfaces, 0, done)
	}
	enumIfs = func(ifs []*hgraph.Interface, k int, done func() bool) bool {
		if k == len(ifs) {
			return done()
		}
		i := ifs[k]
		var opts []*hgraph.Cluster
		for _, sub := range i.Clusters {
			if a[sub.ID] {
				opts = append(opts, sub)
			}
		}
		if len(opts) == 0 {
			return enumIfs(ifs, k+1, done) // interface inactive
		}
		for _, sub := range opts {
			sel[i.ID] = sub.ID
			cont := enumCluster(sub, func() bool { return enumIfs(ifs, k+1, done) })
			delete(sel, i.ID)
			if !cont {
				return false
			}
		}
		return true
	}
	enumCluster(s.Arch.Root, func() bool { return fn(sel) })
}

// ArchView is the instantaneous architecture implied by an allocation
// and one architecture configuration (cluster selection): the set of
// present resources and their interconnection, used to decide
// communication feasibility of bindings.
type ArchView struct {
	spec      *Spec
	Selection hgraph.Selection
	present   map[hgraph.ID]bool
	adj       map[hgraph.ID]map[hgraph.ID]bool
}

// ArchViewFor constructs the architecture view for an allocation under
// a given architecture configuration. Resources not covered by the
// allocation are removed together with their links.
func (s *Spec) ArchViewFor(a Allocation, archSel hgraph.Selection) (*ArchView, error) {
	fg, err := s.Arch.FlattenPartial(archSel)
	if err != nil {
		return nil, fmt.Errorf("spec %q: flatten architecture: %w", s.Name, err)
	}
	avail := a.ResourceSet(s)
	return s.ArchViewFromFlat(fg, func(id hgraph.ID) bool { return avail[id] }, archSel), nil
}

// ArchViewFromFlat builds the architecture view from an already
// flattened architecture configuration, restricting it to the resources
// for which avail holds. It lets callers that evaluate many allocations
// under the same configuration (the exploration hot path) intern the
// FlattenPartial result instead of recomputing it per candidate.
func (s *Spec) ArchViewFromFlat(fg *hgraph.FlatGraph, avail func(hgraph.ID) bool, archSel hgraph.Selection) *ArchView {
	present := map[hgraph.ID]bool{}
	for _, v := range fg.Vertices {
		if avail(v.ID) {
			present[v.ID] = true
		}
	}
	av := &ArchView{spec: s, Selection: archSel.Clone(), present: present,
		adj: map[hgraph.ID]map[hgraph.ID]bool{}}
	link := func(x, y hgraph.ID) {
		if av.adj[x] == nil {
			av.adj[x] = map[hgraph.ID]bool{}
		}
		av.adj[x][y] = true
	}
	for _, e := range fg.Edges {
		if !present[e.From] || !present[e.To] {
			continue
		}
		// Buses are bidirectional at this level of abstraction: the
		// paper's feasibility rule only asks for an activated
		// architecture link handling the communication.
		link(e.From, e.To)
		link(e.To, e.From)
	}
	return av
}

// Present reports whether a resource exists in this view.
func (av *ArchView) Present(r hgraph.ID) bool { return av.present[r] }

// PresentResources returns the resources of the view, sorted.
func (av *ArchView) PresentResources() []hgraph.ID {
	out := make([]hgraph.ID, 0, len(av.present))
	for id := range av.present {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Adjacent reports whether two present resources are directly linked.
func (av *ArchView) Adjacent(r1, r2 hgraph.ID) bool { return av.adj[r1][r2] }

// CanCommunicate implements the paper's binding feasibility rule 3 for
// an edge of the problem graph whose endpoints are bound to r1 and r2:
// either both operations share a resource, or an activated architecture
// link handles the communication — a direct link, or a one-hop route
// through an activated communication resource (bus vertex) connected to
// both. (The Fig. 2 example — no bus between ASIC and FPGA — requires
// exactly this notion.)
func (av *ArchView) CanCommunicate(r1, r2 hgraph.ID) bool {
	if r1 == r2 {
		return av.present[r1]
	}
	if !av.present[r1] || !av.present[r2] {
		return false
	}
	if av.adj[r1][r2] {
		return true
	}
	for b := range av.adj[r1] {
		if av.spec.IsComm(b) && av.adj[b][r2] {
			return true
		}
	}
	return false
}
