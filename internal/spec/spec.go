// Package spec implements the hierarchical specification graph
// G_S = (G_P, G_A, E_M) of "System Design for Flexibility": a problem
// graph modelling the required behaviour, an architecture graph
// modelling the class of possible architectures (both hierarchical
// graphs per package hgraph), and user-defined mapping edges that link
// leaves of the problem graph to leaves of the architecture graph with
// a "can be implemented by" relation.
//
// Components carry the attributes the paper annotates to G_S: allocation
// costs on architecture resources, execution latencies on mapping edges,
// and timing constraints (minimal periods) on problem-graph output
// processes.
package spec

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/hgraph"
)

// Well-known attribute keys used across the library.
const (
	// AttrCost is the allocation cost of an architecture resource
	// (vertex) or architecture cluster.
	AttrCost = "cost"
	// AttrPeriod is the minimal period (timing constraint) annotated to
	// a problem-graph process; 0 or absent means the process is not
	// subject to a timing constraint.
	AttrPeriod = "period"
	// AttrComm marks an architecture vertex as a communication resource
	// (bus) when set to a non-zero value.
	AttrComm = "comm"
	// AttrLatency is the core execution time of a process on a resource,
	// annotated to mapping edges.
	AttrLatency = "latency"
	// AttrWeight is an optional per-cluster weight for the weighted
	// flexibility variant (paper, footnote 2); defaults to 1.
	AttrWeight = "weight"
)

// Mapping is a user-defined mapping edge e ∈ E_M: process (a leaf of
// the problem graph) can be implemented by resource (a leaf of the
// architecture graph) with the given execution latency.
type Mapping struct {
	Process  hgraph.ID
	Resource hgraph.ID
	Latency  float64
	Attrs    hgraph.Attrs
}

// String implements fmt.Stringer.
func (m *Mapping) String() string {
	return fmt.Sprintf("%s=>%s(%g)", m.Process, m.Resource, m.Latency)
}

// Spec is a hierarchical specification graph.
type Spec struct {
	Name     string
	Problem  *hgraph.Graph
	Arch     *hgraph.Graph
	Mappings []*Mapping

	byProcess  map[hgraph.ID][]*Mapping
	byResource map[hgraph.ID][]*Mapping
}

// New assembles and validates a specification graph.
func New(name string, problem, arch *hgraph.Graph, mappings []*Mapping) (*Spec, error) {
	s := &Spec{Name: name, Problem: problem, Arch: arch, Mappings: mappings}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s.buildIndex()
	return s, nil
}

// MustNew is like New but panics on validation errors; intended for
// statically known models.
func MustNew(name string, problem, arch *hgraph.Graph, mappings []*Mapping) *Spec {
	s, err := New(name, problem, arch, mappings)
	if err != nil {
		panic(fmt.Sprintf("spec: invalid specification %q: %v", name, err))
	}
	return s
}

// Validate checks that both graphs validate, that every mapping edge
// links a problem-graph leaf to an architecture-graph leaf, and that no
// (process, resource) pair is mapped twice.
func (s *Spec) Validate() error {
	if s.Problem == nil || s.Arch == nil {
		return fmt.Errorf("spec %q: problem and architecture graphs are required", s.Name)
	}
	if err := s.Problem.Validate(); err != nil {
		return fmt.Errorf("spec %q: problem graph: %w", s.Name, err)
	}
	if err := s.Arch.Validate(); err != nil {
		return fmt.Errorf("spec %q: architecture graph: %w", s.Name, err)
	}
	seen := map[[2]hgraph.ID]bool{}
	for _, m := range s.Mappings {
		if s.Problem.VertexByID(m.Process) == nil {
			return fmt.Errorf("spec %q: mapping %v: %q is not a problem-graph leaf", s.Name, m, m.Process)
		}
		if s.Arch.VertexByID(m.Resource) == nil {
			return fmt.Errorf("spec %q: mapping %v: %q is not an architecture-graph leaf", s.Name, m, m.Resource)
		}
		key := [2]hgraph.ID{m.Process, m.Resource}
		if seen[key] {
			return fmt.Errorf("spec %q: duplicate mapping %v", s.Name, m)
		}
		seen[key] = true
		if m.Latency < 0 {
			return fmt.Errorf("spec %q: mapping %v: negative latency", s.Name, m)
		}
	}
	return nil
}

func (s *Spec) buildIndex() {
	s.byProcess = map[hgraph.ID][]*Mapping{}
	s.byResource = map[hgraph.ID][]*Mapping{}
	for _, m := range s.Mappings {
		s.byProcess[m.Process] = append(s.byProcess[m.Process], m)
		s.byResource[m.Resource] = append(s.byResource[m.Resource], m)
	}
	for _, ms := range s.byProcess {
		slices.SortFunc(ms, func(a, b *Mapping) int { return cmp.Compare(a.Resource, b.Resource) })
	}
	for _, ms := range s.byResource {
		slices.SortFunc(ms, func(a, b *Mapping) int { return cmp.Compare(a.Process, b.Process) })
	}
}

func (s *Spec) ensureIndex() {
	if s.byProcess == nil {
		s.buildIndex()
	}
}

// MappingsFor returns the mapping edges leaving the given process,
// sorted by resource ID. The paper calls the target set R_ij, the
// reachable resources of a vertex.
func (s *Spec) MappingsFor(process hgraph.ID) []*Mapping {
	s.ensureIndex()
	return s.byProcess[process]
}

// MappingsOnto returns the mapping edges arriving at a resource, sorted
// by process ID.
func (s *Spec) MappingsOnto(resource hgraph.ID) []*Mapping {
	s.ensureIndex()
	return s.byResource[resource]
}

// Mapping returns the mapping edge for (process, resource), or nil.
func (s *Spec) Mapping(process, resource hgraph.ID) *Mapping {
	for _, m := range s.MappingsFor(process) {
		if m.Resource == resource {
			return m
		}
	}
	return nil
}

// ReachableResources returns the IDs of resources reachable from the
// process via mapping edges, sorted.
func (s *Spec) ReachableResources(process hgraph.ID) []hgraph.ID {
	ms := s.MappingsFor(process)
	out := make([]hgraph.ID, len(ms))
	for i, m := range ms {
		out[i] = m.Resource
	}
	return out
}

// IsComm reports whether the architecture leaf with the given ID is a
// communication resource.
func (s *Spec) IsComm(resource hgraph.ID) bool {
	v := s.Arch.VertexByID(resource)
	return v != nil && v.Attrs.GetDefault(AttrComm, 0) != 0
}

// Period returns the timing constraint (minimal period) of a process,
// or 0 when the process is untimed.
func (s *Spec) Period(process hgraph.ID) float64 {
	v := s.Problem.VertexByID(process)
	if v == nil {
		return 0
	}
	return v.Attrs.GetDefault(AttrPeriod, 0)
}

// ResourceCost returns the allocation cost of an architecture leaf
// vertex or architecture cluster.
func (s *Spec) ResourceCost(id hgraph.ID) float64 {
	if v := s.Arch.VertexByID(id); v != nil {
		return v.Attrs.GetDefault(AttrCost, 0)
	}
	if c := s.Arch.ClusterByID(id); c != nil {
		return c.Attrs.GetDefault(AttrCost, 0)
	}
	return 0
}

// VertexCount returns |V_S| as used by the paper's search-space
// headline: all non-hierarchical vertices, interfaces and clusters
// contained in the problem or architecture graph.
func (s *Spec) VertexCount() int {
	pv, pi, pc, _ := s.Problem.ElementCount()
	av, ai, ac, _ := s.Arch.ElementCount()
	return pv + pi + pc + av + ai + ac
}

// Clone returns a deep copy of the specification.
func (s *Spec) Clone() *Spec {
	ms := make([]*Mapping, len(s.Mappings))
	for i, m := range s.Mappings {
		cm := *m
		cm.Attrs = m.Attrs.Clone()
		ms[i] = &cm
	}
	return MustNew(s.Name, s.Problem.Clone(), s.Arch.Clone(), ms)
}

// Summary renders a one-paragraph structural overview of the
// specification: element counts, behaviour variants, timed processes
// and resource classes. Used by the CLI tools.
func (s *Spec) Summary() string {
	pv, pi, pc, pe := s.Problem.ElementCount()
	av, ai, ac, ae := s.Arch.ElementCount()
	timed := 0
	for _, v := range s.Problem.Leaves() {
		if s.Period(v.ID) > 0 {
			timed++
		}
	}
	comm := 0
	for _, v := range s.Arch.Leaves() {
		if s.IsComm(v.ID) {
			comm++
		}
	}
	return fmt.Sprintf(
		"spec %q: problem %d processes (%d timed), %d interfaces, %d clusters, %d edges, %d behaviour variants; "+
			"architecture %d resources (%d buses), %d interfaces, %d designs, %d links; %d mapping edges",
		s.Name, pv, timed, pi, pc, pe, s.Problem.CountVariants(),
		av, comm, ai, ac, ae, len(s.Mappings))
}
