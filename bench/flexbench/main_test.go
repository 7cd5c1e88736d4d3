package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestWorkloadsSelfTest runs every workload briefly, untraced and
// traced, and checks the output contract: exactly the metrics
// BENCHMARK.json declares for the mode, with their units, no failed op,
// and a traced run whose spans cover the ops and load as Chrome trace
// JSON.
func TestWorkloadsSelfTest(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name
			want := decl.EndToEnd
			if trace {
				name += "/trace"
				want = decl.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				cfg := config{
					workload: w.name, seed: 1, window: 300 * time.Millisecond, trace: trace,
					traceFile: filepath.Join(dir, "trace.json"), workdir: dir,
				}
				rep, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Failed != 0 || rep.Attempted == 0 {
					t.Fatalf("attempted %d, failed %d: %v", rep.Attempted, rep.Failed, rep.firstErr)
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(rep.Metrics), len(want))
				}
				for _, m := range want {
					if got, ok := rep.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
				}
				var out bytes.Buffer
				if err := rep.print(&out, cfg); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line: %v", err)
				}
				keys := make([]string, 0, len(last))
				for k := range last {
					keys = append(keys, k)
				}
				slices.Sort(keys)
				if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
					t.Errorf("last line keys %v, want %v", keys, want)
				}
				if !trace {
					return
				}
				if c := rep.Metrics["trace.coverage"].Value; c < 0.90 {
					t.Errorf("trace.coverage = %.3f, want >= 0.90", c)
				}
				data, err := os.ReadFile(cfg.traceFile)
				if err != nil {
					t.Fatal(err)
				}
				var doc struct {
					TraceEvents []struct {
						Name string  `json:"name"`
						Ph   string  `json:"ph"`
						Dur  float64 `json:"dur"`
					} `json:"traceEvents"`
				}
				if err := json.Unmarshal(data, &doc); err != nil {
					t.Fatalf("trace file: %v", err)
				}
				if len(doc.TraceEvents) == 0 || doc.TraceEvents[0].Name != "op" || doc.TraceEvents[0].Ph != "X" {
					t.Errorf("trace file starts with %+v, want an op complete event", doc.TraceEvents[:min(1, len(doc.TraceEvents))])
				}
			})
		}
	}
}

// TestArrivalsFromSeed checks that the service workload's inputs are a
// function of the seed and offer the same load for every seed.
func TestArrivalsFromSeed(t *testing.T) {
	d := 2 * time.Second
	a, b, c := arrivals(7, d, 4), arrivals(7, d, 4), arrivals(8, d, 4)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different arrivals")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same arrivals")
	}
	if len(a) != 80 || len(c) != 80 {
		t.Errorf("got %d and %d arrivals, want 80", len(a), len(c))
	}
	mix := func(as []arrival) map[arrival]int {
		m := map[arrival]int{}
		for _, x := range as {
			m[arrival{task: x.task, periodic: x.periodic}]++
		}
		return m
	}
	want := map[arrival]int{{task: 0}: 20, {task: 1}: 20, {task: 2}: 10, {task: 2, periodic: true}: 10, {task: 3}: 10, {task: 3, periodic: true}: 10}
	if !reflect.DeepEqual(mix(a), want) || !reflect.DeepEqual(mix(c), want) {
		t.Errorf("job mix %v and %v, want %v for every seed", mix(a), mix(c), want)
	}
	for i := range a {
		if a[i].due < 0 || a[i].due >= d || (i > 0 && a[i].due < a[i-1].due) {
			t.Fatalf("arrival %d due %v: not sorted within the window", i, a[i].due)
		}
	}
}
