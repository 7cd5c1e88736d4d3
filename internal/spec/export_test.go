package spec

import (
	"repro/internal/bitset"
	"repro/internal/hgraph"
)

// BuildMini is the reduced Fig. 2-style specification of the package's
// own tests.
var BuildMini = buildMini

// LinkSets returns the links' mask and, per resource of Resources, its
// adjacency row and its buses.
func (l *ArchLinks) LinkSets() (mask bitset.Set, rows, buses []bitset.Set) {
	for i := range l.n {
		rows = append(rows, l.row(i))
		buses = append(buses, l.bus(i))
	}
	return l.mask, rows, buses
}

// FlatLinks is the construction ArchSpace.Links replaced, kept as its
// test oracle: the links of a flattened graph, read off its vertices and
// edges.
func FlatLinks(s *Spec, fg *hgraph.FlatGraph) (mask bitset.Set, rows, buses []bitset.Set) {
	ix := s.Resources()
	n := ix.Len()
	mask, rows, buses = bitset.New(n), make([]bitset.Set, n), make([]bitset.Set, n)
	for i := range n {
		rows[i], buses[i] = bitset.New(n), bitset.New(n)
	}
	comm := bitset.New(n)
	for _, v := range fg.Vertices {
		i, ok := ix.Index(v.ID)
		if !ok {
			continue
		}
		mask.Add(i)
		if v.Attrs.GetDefault(AttrComm, 0) != 0 {
			comm.Add(i)
		}
	}
	for _, e := range fg.Edges {
		i, ok1 := ix.Index(e.From)
		j, ok2 := ix.Index(e.To)
		if !ok1 || !ok2 || !mask.Has(i) || !mask.Has(j) {
			continue
		}
		rows[i].Add(j)
		rows[j].Add(i)
		if comm.Has(j) {
			buses[i].Add(j)
		}
		if comm.Has(i) {
			buses[j].Add(i)
		}
	}
	return mask, rows, buses
}

// MapArchSelections is the map-based recursion EnumerateArchSelections
// replaced, kept as its test oracle.
func MapArchSelections(a Allocation, s *Spec, fn func(hgraph.Selection) bool) {
	sel := hgraph.Selection{}
	var enumIfs func(ifs []*hgraph.Interface, k int, done func() bool) bool
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
			return enumIfs(ifs, k+1, done)
		}
		for _, sub := range opts {
			sel[i.ID] = sub.ID
			cont := enumIfs(sub.Interfaces, 0, func() bool { return enumIfs(ifs, k+1, done) })
			delete(sel, i.ID)
			if !cont {
				return false
			}
		}
		return true
	}
	enumIfs(s.Arch.Root.Interfaces, 0, func() bool { return fn(sel) })
}
