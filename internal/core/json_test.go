package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/bind"
	"repro/internal/cover"
	"repro/internal/hgraph"
	"repro/internal/models"
	"repro/internal/spec"
)

// mapWireForm is the result encoding as it was built before the wire
// struct held the behaviour maps directly: every selection and binding
// copied into a map[string]string, the whole indented. It is the
// reference TestResultJSONWireForm holds MarshalJSON to.
func mapWireForm(r *Result) ([]byte, error) {
	type mapBehaviour struct {
		Selection     map[string]string `json:"selection"`
		ArchSelection map[string]string `json:"archSelection,omitempty"`
		Binding       map[string]string `json:"binding"`
	}
	type mapImplementation struct {
		Allocation  []string       `json:"allocation"`
		Cost        float64        `json:"cost"`
		Flexibility float64        `json:"flexibility"`
		Clusters    []string       `json:"clusters"`
		Behaviours  []mapBehaviour `json:"behaviours,omitempty"`
	}
	type mapResult struct {
		MaxFlexibility float64             `json:"maxFlexibility"`
		Interrupted    bool                `json:"interrupted,omitempty"`
		Reason         string              `json:"reason,omitempty"`
		Cursor         int                 `json:"cursor"`
		Front          []mapImplementation `json:"front"`
		Stats          jsonStats           `json:"stats"`
	}
	selToMap := func(s hgraph.Selection) map[string]string {
		if len(s) == 0 {
			return nil
		}
		m := map[string]string{}
		for k, v := range s {
			m[string(k)] = string(v)
		}
		return m
	}
	bindToMap := func(b bind.Binding) map[string]string {
		m := map[string]string{}
		for k, v := range b {
			m[string(k)] = string(v)
		}
		return m
	}
	out := mapResult{
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
		mi := mapImplementation{Cost: im.Cost, Flexibility: im.Flexibility}
		for _, id := range im.Allocation.IDs() {
			mi.Allocation = append(mi.Allocation, string(id))
		}
		for _, c := range im.Clusters {
			mi.Clusters = append(mi.Clusters, string(c))
		}
		for _, b := range im.Behaviours {
			mi.Behaviours = append(mi.Behaviours, mapBehaviour{
				Selection:     selToMap(b.ECS.Selection),
				ArchSelection: selToMap(b.ArchSelection),
				Binding:       bindToMap(b.Binding),
			})
		}
		out.Front = append(out.Front, mi)
	}
	return json.MarshalIndent(out, "", "  ")
}

// TestResultJSONWireForm: MarshalJSON writes the map-based encoding,
// compacted, byte for byte — on real fronts with default and
// exhaustive options, sequential and pipelined, and on hand-built
// results whose selections are empty or nil and whose bindings are nil
// or empty.
func TestResultJSONWireForm(t *testing.T) {
	type subject struct {
		name string
		r    *Result
	}
	var subjects []subject
	for _, sp := range []struct {
		name string
		mk   func() *spec.Spec
	}{
		{"settop", models.SetTopBox},
		{"sdr", models.SDR},
		{"synthetic2", func() *spec.Spec { return models.Synthetic(models.DefaultSynthetic(2)) }},
		{"synthetic3", func() *spec.Spec { return models.Synthetic(models.DefaultSynthetic(3)) }},
	} {
		for _, exhaustive := range []bool{false, true} {
			opts := Options{DisableFlexBound: exhaustive, IncludeUselessComm: exhaustive}
			name := fmt.Sprintf("%s/exhaustive=%v", sp.name, exhaustive)
			subjects = append(subjects,
				subject{name, Explore(sp.mk(), opts)},
				subject{name + "/parallel", ExploreParallel(sp.mk(), opts, 2, 0)})
		}
	}
	subjects = append(subjects,
		subject{"zero", &Result{}},
		subject{"edge cases", &Result{
			MaxFlexibility: 3, Interrupted: true, Reason: ReasonDeadline, Cursor: 7,
			Front: []*Implementation{
				{
					Cost: 1, Flexibility: 1,
					Behaviours: []Behaviour{
						{ECS: cover.ECS{Selection: hgraph.Selection{}}, ArchSelection: hgraph.Selection{}},
						{},
					},
				},
				{
					Allocation: spec.Allocation{}, Clusters: []hgraph.ID{}, Cost: 2, Flexibility: 2,
					Behaviours: []Behaviour{{
						ECS:           cover.ECS{Selection: hgraph.Selection{"I<b>": "c&d"}},
						ArchSelection: hgraph.Selection{"z": "y", "a": "b"},
						Binding:       bind.Binding{},
					}},
				},
				{Allocation: spec.NewAllocation("uP2", "A1"), Clusters: []hgraph.ID{"g"}, Cost: 3, Flexibility: 3},
			},
			Stats: Stats{
				Pipeline: PipelineStats{Workers: 2},
				Diags:    []Diag{{Kind: DiagError, Site: SiteImplement, Message: "m"}},
			},
		}})

	for _, sub := range subjects {
		got, err := sub.r.MarshalJSON()
		if err != nil {
			t.Fatalf("%s: %v", sub.name, err)
		}
		ref, err := mapWireForm(sub.r)
		if err != nil {
			t.Fatalf("%s: %v", sub.name, err)
		}
		var want bytes.Buffer
		if err := json.Compact(&want, ref); err != nil {
			t.Fatalf("%s: %v", sub.name, err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: wire form\n%s\nmap-based, compacted\n%s", sub.name, got, want.Bytes())
		}
	}
}
