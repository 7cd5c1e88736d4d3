// Package flex implements the flexibility metric of Definition 4 in
// "System Design for Flexibility" (DATE 2002).
//
// The flexibility of a cluster γ, if ever activated, is the sum of the
// flexibilities of all its interfaces minus (number of interfaces − 1);
// a cluster without interfaces has flexibility 1; a never-activated
// cluster has flexibility 0. The flexibility of an interface is the sum
// of the flexibilities of its clusters. The future-activation indicator
// a⁺(γ) is supplied by the caller (for maximum flexibility every cluster
// is activatable; for implemented flexibility only clusters that are
// part of a feasible implementation count).
//
// The package also provides the weighted variant suggested by the
// paper's footnote 2, where each cluster carries a weight (attribute
// "weight", default 1) expressing the relative worth of the behaviour
// it implements.
package flex

import (
	"repro/internal/bitset"
	"repro/internal/hgraph"
	"repro/internal/spec"
)

// Activation is the future-activation indicator a⁺: it reports whether
// the cluster with the given ID will ever be selected. The root cluster
// is queried as well (a⁺(G_P) in the paper's worked equation).
type Activation func(hgraph.ID) bool

// AllActive is the activation under which every cluster is activatable;
// it yields the maximum flexibility of a graph.
func AllActive(hgraph.ID) bool { return true }

// FromSet adapts a set of activatable cluster IDs to an Activation.
func FromSet(active map[hgraph.ID]bool) Activation {
	return func(id hgraph.ID) bool { return active[id] }
}

// Except returns an activation that is act minus the listed clusters.
func Except(act Activation, excluded ...hgraph.ID) Activation {
	ex := map[hgraph.ID]bool{}
	for _, id := range excluded {
		ex[id] = true
	}
	return func(id hgraph.ID) bool { return !ex[id] && act(id) }
}

// Flexibility computes f_impl(G) of a hierarchical (problem) graph under
// the activation a⁺ — Definition 4 applied to the root cluster.
//
// One consequence of the hierarchical activation rules is made explicit
// here: a cluster containing an interface none of whose clusters is
// activatable can itself never be activated (rule 1 would be violated),
// so its flexibility is 0 regardless of a⁺.
func Flexibility(g *hgraph.Graph, act Activation) float64 {
	return clusterFlex(graphTree{act: act}, g.Root)
}

// MaxFlexibility is Flexibility under AllActive: the flexibility
// obtained if all clusters can be activated in future implementations.
func MaxFlexibility(g *hgraph.Graph) float64 {
	return Flexibility(g, AllActive)
}

// WeightedFlexibility computes the footnote-2 variant: every cluster's
// contribution is scaled by its "weight" attribute (default 1). With
// all weights 1 it coincides with Flexibility.
func WeightedFlexibility(g *hgraph.Graph, act Activation) float64 {
	return clusterFlex(graphTree{act: act, weighted: true}, g.Root)
}

// tree is what Definition 4 reads of a cluster hierarchy whose clusters
// are named by N: whether a cluster is activated, its weight, and the
// clusters of each of its interfaces, in the graph's order. graphTree
// walks the hierarchy itself and Indexed its dense index layout, so
// clusterFlex is the metric's one implementation for both.
type tree[N any] interface {
	active(c N) bool
	weight(c N) float64
	interfaces(c N) int
	clusters(c N, i int) []N
}

// clusterFlex evaluates Definition 4 on cluster c of t.
func clusterFlex[N any, T tree[N]](t T, c N) float64 {
	if !t.active(c) {
		return 0
	}
	w := t.weight(c)
	k := t.interfaces(c)
	if k == 0 {
		return w
	}
	total := 0.0
	for i := 0; i < k; i++ {
		sum := 0.0
		for _, sub := range t.clusters(c, i) {
			sum += clusterFlex(t, sub)
		}
		if sum == 0 {
			// No activatable refinement for this interface: the cluster
			// can never be activated (activation rule 1).
			return 0
		}
		total += sum
	}
	return w * (total - float64(k-1))
}

// graphTree is a hierarchy read through its cluster pointers, with the
// activation asked by cluster ID. Unweighted, every cluster weighs 1.
type graphTree struct {
	act      Activation
	weighted bool
}

func (t graphTree) active(c *hgraph.Cluster) bool { return t.act(c.ID) }

func (t graphTree) weight(c *hgraph.Cluster) float64 {
	if !t.weighted {
		return 1
	}
	return c.Attrs.GetDefault(spec.AttrWeight, 1)
}

func (graphTree) interfaces(c *hgraph.Cluster) int { return len(c.Interfaces) }

func (graphTree) clusters(c *hgraph.Cluster, i int) []*hgraph.Cluster {
	return c.Interfaces[i].Clusters
}

// Indexed is a graph's cluster hierarchy laid out in the dense index
// space of a cluster indexer, so Definition 4 can be evaluated on a
// bitset activation without an ID lookup or a closure: every cluster
// lists its interfaces' cluster indices in the graph's order, and the
// footnote-2 weights are read once, at construction. An Indexed is
// immutable and safe for concurrent use.
type Indexed struct {
	root    int
	ifaces  [][][]int // per cluster, per interface: cluster indices
	weights []float64
}

// NewIndexed lays out the hierarchy of g over ix, which must index
// every cluster of g.
func NewIndexed(g *hgraph.Graph, ix *bitset.Indexer[hgraph.ID]) *Indexed {
	x := &Indexed{ifaces: make([][][]int, ix.Len()), weights: make([]float64, ix.Len())}
	for _, c := range g.Clusters() {
		i, _ := ix.Index(c.ID)
		x.weights[i] = c.Attrs.GetDefault(spec.AttrWeight, 1)
		for _, iface := range c.Interfaces {
			subs := make([]int, len(iface.Clusters))
			for k, sub := range iface.Clusters {
				subs[k], _ = ix.Index(sub.ID)
			}
			x.ifaces[i] = append(x.ifaces[i], subs)
		}
	}
	x.root, _ = ix.Index(g.Root.ID)
	return x
}

// Flexibility is the package's Flexibility with the activation a⁺
// given as the set act over the indexer's clusters.
func (x *Indexed) Flexibility(act bitset.Set) float64 {
	return clusterFlex(indexedTree{x: x, act: act}, x.root)
}

// WeightedFlexibility is the package's WeightedFlexibility with the
// activation given as the set act over the indexer's clusters.
func (x *Indexed) WeightedFlexibility(act bitset.Set) float64 {
	return clusterFlex(indexedTree{x: x, act: act, weighted: true}, x.root)
}

// indexedTree reads an Indexed layout under one activation set.
type indexedTree struct {
	x        *Indexed
	act      bitset.Set
	weighted bool
}

func (t indexedTree) active(c int) bool { return t.act.Has(c) }

func (t indexedTree) weight(c int) float64 {
	if !t.weighted {
		return 1
	}
	return t.x.weights[c]
}

func (t indexedTree) interfaces(c int) int { return len(t.x.ifaces[c]) }

func (t indexedTree) clusters(c, i int) []int { return t.x.ifaces[c][i] }

// InterfaceFlexibility computes the flexibility of a single interface:
// the sum of the flexibilities of its clusters.
func InterfaceFlexibility(i *hgraph.Interface, act Activation) float64 {
	sum := 0.0
	for _, sub := range i.Clusters {
		sum += clusterFlex(graphTree{act: act}, sub)
	}
	return sum
}

// ClusterFlexibility computes Definition 4 on one cluster of the graph.
func ClusterFlexibility(c *hgraph.Cluster, act Activation) float64 {
	return clusterFlex(graphTree{act: act}, c)
}

// ActivatableClusters returns, given an activation, the set of cluster
// IDs that can actually be activated under the hierarchical activation
// rules: a cluster is effectively activatable iff a⁺ holds for it, its
// owner interface belongs to an effectively activatable cluster, and
// every one of its interfaces has at least one effectively activatable
// cluster. The root is subject to a⁺ like any other cluster, matching
// the a⁺(G_P) factor of the paper's worked equation. Normalizing an
// activation through this set leaves Flexibility unchanged.
func ActivatableClusters(g *hgraph.Graph, act Activation) map[hgraph.ID]bool {
	out := map[hgraph.ID]bool{}
	memo := map[hgraph.ID]bool{}
	var ok func(c *hgraph.Cluster) bool
	ok = func(c *hgraph.Cluster) bool {
		if v, seen := memo[c.ID]; seen {
			return v
		}
		res := act(c.ID)
		if res {
			for _, i := range c.Interfaces {
				any := false
				for _, sub := range i.Clusters {
					if ok(sub) {
						any = true
					}
				}
				if !any {
					res = false
					break
				}
			}
		}
		memo[c.ID] = res
		return res
	}
	// Evaluate all clusters so the memo is complete even under early
	// failures, then mark top-down: a cluster is in the result only if
	// its whole ancestor chain is activatable.
	var mark func(c *hgraph.Cluster)
	mark = func(c *hgraph.Cluster) {
		if !ok(c) {
			return
		}
		out[c.ID] = true
		for _, i := range c.Interfaces {
			for _, sub := range i.Clusters {
				mark(sub)
			}
		}
	}
	mark(g.Root)
	return out
}

// Activatable is ActivatableClusters over the Indexed layout: the
// activation a⁺ is the cluster set act, and out receives the
// effectively activatable set under the hierarchical activation rules,
// in the same index space. out (sized to the indexer) and memo (one
// entry per cluster) are caller-owned scratch, so a query allocates
// nothing.
func (x *Indexed) Activatable(act, out bitset.Set, memo []int8) {
	out.Clear()
	clear(memo)
	x.mark(x.root, act, out, memo)
}

// mark adds cluster c to out when it is activatable, and then every
// activatable cluster below it.
func (x *Indexed) mark(c int, act, out bitset.Set, memo []int8) {
	if !x.activatable(c, act, memo) {
		return
	}
	out.Add(c)
	for _, subs := range x.ifaces[c] {
		for _, sub := range subs {
			x.mark(sub, act, out, memo)
		}
	}
}

// activatable reports whether cluster c is in act and each of its
// interfaces has an activatable cluster. memo holds one entry per
// cluster: 0 unknown, 1 activatable, 2 not.
func (x *Indexed) activatable(c int, act bitset.Set, memo []int8) bool {
	if memo[c] != 0 {
		return memo[c] == 1
	}
	res := act.Has(c)
	if res {
		for _, subs := range x.ifaces[c] {
			any := false
			for _, sub := range subs {
				if x.activatable(sub, act, memo) {
					any = true
				}
			}
			if !any {
				res = false
				break
			}
		}
	}
	if res {
		memo[c] = 1
	} else {
		memo[c] = 2
	}
	return res
}
