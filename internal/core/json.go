package core

import (
	"encoding/json"

	"repro/internal/hgraph"
)

// jsonResult is the wire form of an exploration result, for downstream
// tooling (plotting, regression dashboards).
type jsonResult struct {
	MaxFlexibility float64              `json:"maxFlexibility"`
	Interrupted    bool                 `json:"interrupted,omitempty"`
	Reason         string               `json:"reason,omitempty"`
	Cursor         int                  `json:"cursor"`
	Front          []jsonImplementation `json:"front"`
	Stats          jsonStats            `json:"stats"`
}

type jsonImplementation struct {
	Allocation  []string        `json:"allocation"`
	Cost        float64         `json:"cost"`
	Flexibility float64         `json:"flexibility"`
	Clusters    []string        `json:"clusters"`
	Behaviours  []jsonBehaviour `json:"behaviours,omitempty"`
}

type jsonBehaviour struct {
	Selection     map[string]string `json:"selection"`
	ArchSelection map[string]string `json:"archSelection,omitempty"`
	Binding       map[string]string `json:"binding"`
}

type jsonStats struct {
	DesignSpace         float64    `json:"designSpace"`
	AllocSpace          float64    `json:"allocSpace"`
	Scanned             int        `json:"scanned"`
	PossibleAllocations int        `json:"possibleAllocations"`
	Estimated           int        `json:"estimated"`
	Attempted           int        `json:"attempted"`
	Feasible            int        `json:"feasible"`
	ECSTested           int        `json:"ecsTested"`
	BindingRuns         int        `json:"bindingRuns"`
	BindingNodes        int        `json:"bindingNodes"`
	Cache               CacheStats `json:"cache"`
	// Pipeline appears only for parallel runs (nil for sequential ones,
	// keeping their wire form unchanged).
	Pipeline *PipelineStats `json:"pipeline,omitempty"`
	Diags    []Diag         `json:"diags,omitempty"`
}

// MarshalJSON encodes the result — front, per-implementation behaviours
// and effort counters — deterministically.
func (r *Result) MarshalJSON() ([]byte, error) {
	out := jsonResult{
		MaxFlexibility: r.MaxFlexibility,
		Interrupted:    r.Interrupted,
		Reason:         string(r.Reason),
		Cursor:         r.Cursor,
		Stats: jsonStats{
			DesignSpace:         r.Stats.DesignSpace,
			AllocSpace:          r.Stats.AllocSpace,
			Scanned:             r.Stats.Scanned,
			PossibleAllocations: r.Stats.PossibleAllocations,
			Estimated:           r.Stats.Estimated,
			Attempted:           r.Stats.Attempted,
			Feasible:            r.Stats.Feasible,
			ECSTested:           r.Stats.ECSTested,
			BindingRuns:         r.Stats.BindingRuns,
			BindingNodes:        r.Stats.BindingNodes,
			Cache:               r.Stats.Cache,
			Diags:               r.Stats.Diags,
		},
	}
	if p := r.Stats.Pipeline; p != (PipelineStats{}) {
		out.Stats.Pipeline = &p
	}
	for _, im := range r.Front {
		ji := jsonImplementation{
			Cost:        im.Cost,
			Flexibility: im.Flexibility,
		}
		for _, id := range im.Allocation.IDs() {
			ji.Allocation = append(ji.Allocation, string(id))
		}
		for _, c := range im.Clusters {
			ji.Clusters = append(ji.Clusters, string(c))
		}
		for _, b := range im.Behaviours {
			ji.Behaviours = append(ji.Behaviours, jsonBehaviour{
				Selection:     selToMap(b.ECS.Selection),
				ArchSelection: selToMap(b.ArchSelection),
				Binding:       bindToMap(b.Binding),
			})
		}
		out.Front = append(out.Front, ji)
	}
	return json.MarshalIndent(out, "", "  ")
}

func selToMap(s hgraph.Selection) map[string]string {
	if len(s) == 0 {
		return nil
	}
	m := map[string]string{}
	for k, v := range s {
		m[string(k)] = string(v)
	}
	return m
}

func bindToMap(b map[hgraph.ID]hgraph.ID) map[string]string {
	m := map[string]string{}
	for k, v := range b {
		m[string(k)] = string(v)
	}
	return m
}
