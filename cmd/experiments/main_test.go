package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden file")

// TestAllExperimentsRun smoke-tests every experiment function: each
// must complete without panicking (their numeric assertions live in the
// package test suites; this guards the regeneration binary itself).
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment regeneration skipped in -short mode")
	}
	for _, e := range experiments() {
		t.Run(e.id, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("experiment %s panicked: %v", e.id, r)
				}
			}()
			e.run()
		})
	}
}

// TestGolden compares everything main prints, E1–E18, byte for byte
// with testdata/experiments.golden, so a change that moves a
// reproduced number shows up as a diff of that file. Regenerate it
// with `go test ./cmd/experiments -update`.
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment regeneration skipped in -short mode")
	}
	got := captureStdout(t, func() { runAll("") })
	golden := filepath.Join("testdata", "experiments.golden")
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
		t.Errorf("output differs from %s; run `go test ./cmd/experiments -update` and review the diff.\n--- got ---\n%s", golden, got)
	}
}

// captureStdout runs fn with os.Stdout redirected to a file and
// returns what fn printed.
func captureStdout(t *testing.T, fn func()) []byte {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = stdout }()
	fn()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out
}
