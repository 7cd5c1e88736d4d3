package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// goldenRuns are the command lines whose stdout is pinned in
// testdata/<name>.golden: the case study under every -algo with -json,
// an upgrade, a multi-objective run and the -stats report of a
// sequential scan. A parallel run's pipeline gauges hold wall time, so
// no golden includes them.
var goldenRuns = []struct {
	name string
	args []string
}{
	{"settop-explore-json", []string{"-model", "settop", "-json", "-algo", "explore"}},
	{"settop-exhaustive-json", []string{"-model", "settop", "-json", "-algo", "exhaustive"}},
	{"settop-random-json", []string{"-model", "settop", "-json", "-algo", "random"}},
	{"settop-ea-json", []string{"-model", "settop", "-json", "-algo", "ea"}},
	{"settop-upgrade-uP2", []string{"-model", "settop", "-upgrade-from", "uP2"}},
	{"settop-objectives-latency", []string{"-model", "settop", "-objectives", "latency"}},
	{"settop-stats-workers1", []string{"-model", "settop", "-stats", "-workers", "1"}},
}

// TestGoldenOutputs builds the CLI and compares each goldenRuns
// command's stdout with its golden file. Regenerate them with
// `go test ./cmd/explore -run TestGoldenOutputs -update` and review
// the diff.
func TestGoldenOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the explore binary")
	}
	bin := filepath.Join(t.TempDir(), "explore")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, run := range goldenRuns {
		t.Run(run.name, func(t *testing.T) {
			got, err := exec.Command(bin, run.args...).Output()
			if err != nil {
				t.Fatalf("explore %s: %v", strings.Join(run.args, " "), err)
			}
			golden := filepath.Join("testdata", run.name+".golden")
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("explore %s: output differs from %s\n--- got ---\n%s--- want ---\n%s",
					strings.Join(run.args, " "), golden, got, want)
			}
		})
	}
}
