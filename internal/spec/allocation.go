package spec

import (
	"slices"
	"strings"

	"repro/internal/bitset"
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
	slices.Sort(out)
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
	slices.Sort(out)
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

// EnumerateArchSelections calls fn for every instantaneous architecture
// configuration consistent with the allocation: for each reachable
// architecture interface that has at least one allocated cluster,
// exactly one allocated cluster is selected; interfaces without an
// allocated cluster stay inactive. Enumeration stops when fn returns
// false. The selection passed to fn is reused; clone to retain. It is
// ArchSpace.Enumerate with each configuration written into the map.
func (a Allocation) EnumerateArchSelections(s *Spec, fn func(hgraph.Selection) bool) {
	x := NewArchSpace(s)
	allocated := bitset.New(x.Clusters.Len())
	for id, on := range a {
		if i, ok := x.Clusters.Index(id); ok && on {
			allocated.Add(i)
		}
	}
	sel := hgraph.Selection{}
	x.Enumerate(allocated, func(cfg bitset.Set) bool {
		clear(sel)
		x.fill(sel, cfg)
		return fn(sel)
	})
}
