package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestWorkersSmoke builds the CLI and runs the same exploration
// sequentially and with a worker pool, asserting the advertised
// contract of -workers: the front is byte-identical to the sequential
// scan.
func TestWorkersSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the explore binary")
	}
	bin := filepath.Join(t.TempDir(), "explore")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(args ...string) string {
		t.Helper()
		cmd := exec.Command(bin, args...)
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s %s: %v", bin, strings.Join(args, " "), err)
		}
		return string(out)
	}
	seq := run("-model", "settop", "-tsv")
	if !strings.Contains(seq, "\t") {
		t.Fatalf("sequential run produced no TSV front:\n%s", seq)
	}
	for _, workers := range []string{"0", "4"} {
		par := run("-model", "settop", "-tsv", "-workers", workers)
		if par != seq {
			t.Errorf("-workers %s front differs from sequential:\nsequential:\n%s\nparallel:\n%s", workers, seq, par)
		}
	}
}
