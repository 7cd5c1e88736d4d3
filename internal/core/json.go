package core

import (
	"encoding/json"

	"repro/internal/bind"
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
	Allocation  []hgraph.ID     `json:"allocation"`
	Cost        float64         `json:"cost"`
	Flexibility float64         `json:"flexibility"`
	Clusters    []hgraph.ID     `json:"clusters"`
	Behaviours  []jsonBehaviour `json:"behaviours,omitempty"`
}

// jsonBehaviour holds the behaviour's maps as they are: encoding/json
// writes a map with string-kind keys as an object sorted by key, so
// the selections and the binding need no string-keyed copy.
type jsonBehaviour struct {
	Selection     hgraph.Selection `json:"selection"`
	ArchSelection hgraph.Selection `json:"archSelection,omitempty"`
	Binding       bind.Binding     `json:"binding"`
}

// noBinding is the encoding of a nil binding: an empty object, never
// null. Encoding only reads it.
var noBinding = bind.Binding{}

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
// and effort counters — deterministically, as compact JSON. Empty
// lists and an empty selection encode as null and a nil binding as {}.
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
	if len(r.Front) > 0 {
		out.Front = make([]jsonImplementation, len(r.Front))
	}
	for i, im := range r.Front {
		ji := &out.Front[i]
		ji.Cost, ji.Flexibility = im.Cost, im.Flexibility
		if len(im.Allocation) > 0 {
			ji.Allocation = im.Allocation.IDs()
		}
		if len(im.Clusters) > 0 {
			ji.Clusters = im.Clusters
		}
		if len(im.Behaviours) > 0 {
			ji.Behaviours = make([]jsonBehaviour, len(im.Behaviours))
		}
		for k, b := range im.Behaviours {
			jb := &ji.Behaviours[k]
			jb.Selection, jb.ArchSelection, jb.Binding = b.ECS.Selection, b.ArchSelection, b.Binding
			if len(jb.Selection) == 0 {
				jb.Selection = nil
			}
			if jb.Binding == nil {
				jb.Binding = noBinding
			}
		}
	}
	return json.Marshal(out)
}
