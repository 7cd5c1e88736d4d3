package spec

import (
	"cmp"
	"slices"

	"repro/internal/bitset"
	"repro/internal/hgraph"
)

// Candidate is one mapping edge of a problem leaf in index space: the
// resource's index in Resources and the mapping's latency.
type Candidate struct {
	Res int32
	Lat float64
}

// ProblemLeaf is one leaf of the problem graph as the binding solver
// reads it. It depends only on the leaf, never on the behaviour it is
// bound in, so every binding problem of a run shares one.
type ProblemLeaf struct {
	ID hgraph.ID
	// Rank is the leaf's position in ID order among the leaves of its
	// table: the solver's tie-break.
	Rank   int32
	Period float64
	// Cands are the leaf's mapping edges onto resources of Resources, in
	// MappingsFor (resource ID) order. Mapping edges onto other
	// resources are dropped, as they can never be present in a view.
	Cands []Candidate
	// Res is the set of the candidates' resources, over Resources.
	Res bitset.Set
}

// ProblemLeaves builds the binding table of the problem leaves ids: per
// leaf its period and its candidates, in the order of ids, ranked by
// ID. The candidates share one slab and the resource sets another.
func (s *Spec) ProblemLeaves(ids []hgraph.ID) []ProblemLeaf {
	res := s.Resources()
	w := bitset.WordsFor(res.Len())
	total := 0
	for _, id := range ids {
		total += len(s.MappingsFor(id))
	}
	tab := make([]ProblemLeaf, len(ids))
	cands := make([]Candidate, 0, total)
	sets := make([]uint64, len(ids)*w)
	byID := make([]int32, len(ids))
	for i, id := range ids {
		l := &tab[i]
		l.ID, l.Period = id, s.Period(id)
		l.Res = bitset.Of(sets[i*w : (i+1)*w : (i+1)*w])
		lo := len(cands)
		for _, m := range s.MappingsFor(id) {
			if r, ok := res.Index(m.Resource); ok {
				cands = append(cands, Candidate{Res: int32(r), Lat: m.Latency})
				l.Res.Add(r)
			}
		}
		l.Cands = cands[lo:len(cands):len(cands)]
		byID[i] = int32(i)
	}
	slices.SortFunc(byID, func(a, b int32) int { return cmp.Compare(ids[a], ids[b]) })
	for rank, i := range byID {
		tab[i].Rank = int32(rank)
	}
	return tab
}

// ProblemSpace is the problem graph of a specification laid out in the
// index spaces of its clusters and its leaves (see layout), so its
// elementary cluster activations (ECSs) are enumerated and flattened
// for binding without a selection map or a flattened graph. An ECS is a
// set over Clusters: the root and the cluster selected for each active
// interface. Per leaf of the problem graph the space holds its binding table
// entry, which every problem built on it shares. A ProblemSpace is
// immutable and safe for concurrent use; a mutation of the graph or of
// the mappings needs a new one.
type ProblemSpace struct {
	layout
	// table holds per leaf index its binding data; its ranks are the
	// indices.
	table []ProblemLeaf
}

// NewProblemSpace lays out the problem graph of s over the cluster
// index clusters, which must index every problem cluster in ID order
// (alloc.Supporter's Clusters does).
func NewProblemSpace(s *Spec, clusters *bitset.Indexer[hgraph.ID]) *ProblemSpace {
	leaves := s.Problem.LeafIndexer()
	ids := make([]hgraph.ID, leaves.Len())
	for i := range ids {
		ids[i] = leaves.At(i)
	}
	return &ProblemSpace{layout: newLayout(s.Problem, leaves, clusters), table: s.ProblemLeaves(ids)}
}

// Enumerate calls fn for every ECS of the problem graph, in the order
// cover.Enumerate yields them when every cluster is activatable: each
// interface reachable from the root through selected clusters selects
// exactly one of its clusters. It stops when fn returns false. The set
// passed to fn is reused; clone it to retain.
func (x *ProblemSpace) Enumerate(fn func(ecs bitset.Set) bool) {
	all := bitset.New(x.Clusters.Len())
	for i := range x.Clusters.Len() {
		all.Add(i)
	}
	// Every interface has a cluster (the graph validates), so none stays
	// inactive.
	x.enumerate(all, fn)
}

// Flatten returns the flattening of the ECS ecs in index space: its
// leaves in ID order, each the space's shared entry, and its
// dependences as pairs of indices into the leaves, sorted by source and
// target as hgraph's Flatten sorts them. It reports false where Flatten
// fails: an edge endpoint reaches, through a port binding onto a nested
// interface, a selected cluster that binds no such port, so no chain of
// its resolutions is selected.
func (x *ProblemSpace) Flatten(ecs bitset.Set) ([]*ProblemLeaf, [][2]int32, bool) {
	// An ECS holds exactly the clusters the walk visits, so its scopes'
	// sizes are the flattening's.
	n, m := 0, 0
	ecs.ForEach(func(c int) bool {
		n += len(x.scopes[c].verts)
		m += len(x.scopes[c].edges)
		return true
	})
	leaves, edges := make([]*ProblemLeaf, 0, n), make([][2]int32, 0, m)
	ok := x.walk(x.root, ecs, func(sc *scope) bool {
		for _, i := range sc.verts {
			leaves = append(leaves, &x.table[i])
		}
		for _, e := range sc.edges {
			i, ok1 := x.endpoint(e.from, ecs)
			j, ok2 := x.endpoint(e.to, ecs)
			if !ok1 || !ok2 {
				return false
			}
			edges = append(edges, [2]int32{int32(i), int32(j)})
		}
		return true
	})
	if !ok {
		return nil, nil, false
	}
	// Leaves in ID order, then each dependence's leaf indices turned
	// into positions among them.
	slices.SortFunc(leaves, func(a, b *ProblemLeaf) int { return cmp.Compare(a.Rank, b.Rank) })
	for k, e := range edges {
		edges[k] = [2]int32{position(leaves, e[0]), position(leaves, e[1])}
	}
	slices.SortFunc(edges, func(a, b [2]int32) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	return leaves, edges, true
}

// position returns the index in leaves of the leaf with table index i.
// Every endpoint of a validated graph lies in its flattening.
func position(leaves []*ProblemLeaf, i int32) int32 {
	k, _ := slices.BinarySearchFunc(leaves, i, func(l *ProblemLeaf, r int32) int { return cmp.Compare(l.Rank, r) })
	return int32(k)
}
