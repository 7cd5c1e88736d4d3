package spec

import (
	"fmt"

	"repro/internal/hgraph"
)

// AddBehaviour evolves the specification with a new behaviour variant:
// a cluster is attached to a problem-graph interface and its processes
// gain mapping edges. This is the paper's incremental-design scenario
// (new functionality arriving after the platform is dimensioned, §1's
// discussion of [10]); pair it with an upgrade run (core.KindUpgrade)
// to find the cheapest platform extension implementing the newcomer. On error the
// specification is unchanged.
func (s *Spec) AddBehaviour(interfaceID hgraph.ID, c *hgraph.Cluster, mappings []*Mapping) error {
	if err := s.Problem.AddCluster(interfaceID, c); err != nil {
		return err
	}
	old := s.Mappings
	s.Mappings = append(append([]*Mapping(nil), old...), mappings...)
	if err := s.Validate(); err != nil {
		s.Mappings = old
		if rerr := s.Problem.RemoveCluster(c.ID); rerr != nil {
			return fmt.Errorf("spec %q: %w (rollback failed: %w)", s.Name, err, rerr)
		}
		return err
	}
	s.buildIndex()
	return nil
}

// RemoveBehaviour removes a problem-graph cluster and the mapping edges
// of the processes it (exclusively) contained.
func (s *Spec) RemoveBehaviour(clusterID hgraph.ID) error {
	c := s.Problem.ClusterByID(clusterID)
	if c == nil {
		return fmt.Errorf("spec %q: no cluster %q", s.Name, clusterID)
	}
	gone := map[hgraph.ID]bool{}
	for _, v := range s.Problem.LeavesOf(c) {
		gone[v.ID] = true
	}
	if err := s.Problem.RemoveCluster(clusterID); err != nil {
		return err
	}
	kept := s.Mappings[:0]
	for _, m := range s.Mappings {
		if !gone[m.Process] {
			kept = append(kept, m)
		}
	}
	s.Mappings = kept
	s.buildIndex()
	return nil
}
