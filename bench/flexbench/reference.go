package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/core"
)

// row is one front member as references record it.
type row struct {
	Allocation  []string `json:"allocation"`
	Cost        float64  `json:"cost"`
	Flexibility float64  `json:"flexibility"`
	Clusters    []string `json:"clusters"`
}

// summary is what a reference pins of an exploration's outcome. The
// service's result JSON decodes into it directly.
type summary struct {
	Reason         string  `json:"reason"`
	Cursor         int     `json:"cursor"`
	MaxFlexibility float64 `json:"maxFlexibility"`
	Front          []row   `json:"front"`
}

func summarize(r *core.Result) summary {
	out := summary{Reason: string(r.Reason), Cursor: r.Cursor, MaxFlexibility: r.MaxFlexibility}
	for _, im := range r.Front {
		rw := row{Cost: im.Cost, Flexibility: im.Flexibility}
		for _, id := range im.Allocation.IDs() {
			rw.Allocation = append(rw.Allocation, string(id))
		}
		for _, c := range im.Clusters {
			rw.Clusters = append(rw.Clusters, string(c))
		}
		out.Front = append(out.Front, rw)
	}
	return out
}

// reference is the outcome a task must reproduce. A paper reference
// holds the published table: its rows name only the clusters the paper
// lists, and it has no cursor.
type reference struct {
	want  summary
	paper bool
}

func (ref *reference) check(got summary) error {
	w := ref.want
	if got.Reason != w.Reason {
		return fmt.Errorf("reason %q, want %q", got.Reason, w.Reason)
	}
	if !ref.paper && got.Cursor != w.Cursor {
		return fmt.Errorf("cursor %d, want %d", got.Cursor, w.Cursor)
	}
	if got.MaxFlexibility != w.MaxFlexibility {
		return fmt.Errorf("max flexibility %g, want %g", got.MaxFlexibility, w.MaxFlexibility)
	}
	if len(got.Front) != len(w.Front) {
		return fmt.Errorf("front has %d rows, want %d", len(got.Front), len(w.Front))
	}
	for i, g := range got.Front {
		r := w.Front[i]
		ok := g.Cost == r.Cost && g.Flexibility == r.Flexibility && slices.Equal(g.Allocation, r.Allocation)
		if ref.paper {
			for _, c := range r.Clusters {
				ok = ok && slices.Contains(g.Clusters, c)
			}
		} else {
			ok = ok && slices.Equal(g.Clusters, r.Clusters)
		}
		if !ok {
			return fmt.Errorf("front row %d is %v, want %v", i, g, r)
		}
	}
	return nil
}

// paperReference is the Set-Top box's Pareto table from the paper's
// Section 5, in this repository's unit names (the FPGA designs are the
// clusters dD3, dU2 and dG1). The paper lists implemented clusters
// without the root and the interface parents.
func paperReference() *reference {
	return &reference{paper: true, want: summary{
		Reason:         string(core.ReasonCompleted),
		MaxFlexibility: 8,
		Front: []row{
			{[]string{"uP2"}, 100, 2, []string{"gI", "gD1", "gU1"}},
			{[]string{"uP1"}, 120, 3, []string{"gI", "gG1", "gD1", "gU1"}},
			{[]string{"C1", "dG1", "dU2", "uP2"}, 230, 4, []string{"gI", "gG1", "gD1", "gU1", "gU2"}},
			{[]string{"C1", "dD3", "dG1", "dU2", "uP2"}, 290, 5, []string{"gI", "gG1", "gD1", "gD3", "gU1", "gU2"}},
			{[]string{"A1", "C2", "uP2"}, 360, 7, []string{"gI", "gG1", "gG2", "gG3", "gD1", "gD2", "gU1", "gU2"}},
			{[]string{"A1", "C1", "C2", "dD3", "uP2"}, 430, 8, []string{"gI", "gG1", "gG2", "gG3", "gD1", "gD2", "gD3", "gU1", "gU2"}},
		},
	}}
}

//go:embed testdata/*.json
var goldenFS embed.FS

// loadReferences returns the reference of every task key: the paper's
// table for the Set-Top box and the committed golden fronts otherwise.
func loadReferences() (map[string]*reference, error) {
	refs := map[string]*reference{"settop": paperReference()}
	for _, t := range goldenTasks() {
		data, err := goldenFS.ReadFile("testdata/" + t.key + ".json")
		if err != nil {
			return nil, fmt.Errorf("golden %s: %w (regenerate with -golden)", t.key, err)
		}
		ref := &reference{}
		if err := json.Unmarshal(data, &ref.want); err != nil {
			return nil, fmt.Errorf("golden %s: %w", t.key, err)
		}
		refs[t.key] = ref
	}
	return refs, nil
}

// writeGoldens regenerates the golden fronts into dir. They come from
// the replay on the bitset producer, which shares neither the producer
// (above 20 units) nor the cached evaluator with the timed runs.
func writeGoldens(dir string) error {
	for _, t := range goldenTasks() {
		data, err := json.MarshalIndent(summarize(replay(t.spec, t.options(), bitsetProducer, nil)), "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, t.key+".json"), append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
