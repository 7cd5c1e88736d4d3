package spec

import (
	"fmt"

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
// among its neighbours. It is built once per flattening, is immutable,
// and every view over the flattening shares it.
type ArchLinks struct {
	ix   *bitset.Indexer[hgraph.ID]
	mask bitset.Set
	// rows[i] holds the resources linked to resource i; buses[i] is
	// rows[i] restricted to communication resources. Both are zero sets
	// for resources outside the flattening.
	rows  []bitset.Set
	buses []bitset.Set
}

// LinksOf prepares a flattened architecture configuration for views.
func (s *Spec) LinksOf(fg *hgraph.FlatGraph) *ArchLinks {
	ix := s.Resources()
	n := ix.Len()
	l := &ArchLinks{ix: ix, mask: bitset.New(n), rows: make([]bitset.Set, n), buses: make([]bitset.Set, n)}
	comm := bitset.New(n)
	for _, v := range fg.Vertices {
		i, ok := ix.Index(v.ID)
		if !ok {
			continue
		}
		l.mask.Add(i)
		l.rows[i] = bitset.New(n)
		l.buses[i] = bitset.New(n)
		if v.Attrs.GetDefault(AttrComm, 0) != 0 {
			comm.Add(i)
		}
	}
	for _, e := range fg.Edges {
		i, ok1 := ix.Index(e.From)
		j, ok2 := ix.Index(e.To)
		if !ok1 || !ok2 || !l.mask.Has(i) || !l.mask.Has(j) {
			continue
		}
		// Buses are bidirectional at this level of abstraction: the
		// paper's feasibility rule only asks for an activated
		// architecture link handling the communication.
		l.rows[i].Add(j)
		l.rows[j].Add(i)
		if comm.Has(j) {
			l.buses[i].Add(j)
		}
		if comm.Has(i) {
			l.buses[j].Add(i)
		}
	}
	return l
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

// Mask returns the resources the flattening contains, a set over
// Resources: every view's present set is a subset of it. The set is the
// links' own; treat it as read-only.
func (l *ArchLinks) Mask() bitset.Set { return l.mask }

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
	fg, err := s.Arch.FlattenPartial(archSel)
	if err != nil {
		return nil, fmt.Errorf("spec %q: flatten architecture: %w", s.Name, err)
	}
	avail := s.Resources().SetOf(a.Resources(s)...)
	return s.LinksOf(fg).View(archSel.Clone(), avail), nil
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
	return ok1 && ok2 && av.links.rows[i].Has(j)
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
	return l.rows[i].Has(j) || l.buses[i].IntersectsBoth(l.buses[j], av.present)
}
