package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runInProcess runs the CLI's run with args in this process and returns
// its stdout; a nonzero exit fails the test. The command line, the flag
// set and stdout are swapped in for the call and restored after it.
func runInProcess(t *testing.T, args ...string) []byte {
	t.Helper()
	oldArgs, oldFlags, oldStdout := os.Args, flag.CommandLine, os.Stdout
	defer func() { os.Args, flag.CommandLine, os.Stdout = oldArgs, oldFlags, oldStdout }()
	os.Args = append([]string{"explore"}, args...)
	flag.CommandLine = flag.NewFlagSet("explore", flag.ContinueOnError)
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	os.Stdout = w
	code := run()
	w.Close()
	got := <-out
	if code != 0 {
		t.Fatalf("explore %s: exit %d", strings.Join(args, " "), code)
	}
	return got
}

// frontOf returns the "front" member of a -json result, as printed.
func frontOf(t *testing.T, out []byte) []byte {
	t.Helper()
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("-json output is not JSON: %v\n%s", err, out)
	}
	if doc["front"] == nil {
		t.Fatalf("-json output has no front:\n%s", out)
	}
	return doc["front"]
}

// TestFrontIndependentOfSchedule: a behaviour's binding is its
// allocation's own solve, so the printed front, bindings included, does
// not depend on how the scan was scheduled. On a synthetic model, twenty
// -workers 2 runs print the -workers 1 front byte for byte, and resuming
// a completed checkpoint — which re-implements its front on a fresh
// evaluator — prints it again.
func TestFrontIndependentOfSchedule(t *testing.T) {
	args := []string{"-model", "synthetic", "-seed", "3", "-json"}
	want := frontOf(t, runInProcess(t, append(args, "-workers", "1")...))
	for i := range 20 {
		if got := frontOf(t, runInProcess(t, append(args, "-workers", "2")...)); !bytes.Equal(got, want) {
			t.Fatalf("run %d: the -workers 2 front differs from -workers 1:\n%s\nwant\n%s", i, got, want)
		}
	}
	ck := filepath.Join(t.TempDir(), "ck.json")
	runInProcess(t, append(args, "-workers", "2", "-checkpoint", ck)...)
	if got := frontOf(t, runInProcess(t, append(args, "-checkpoint", ck, "-resume")...)); !bytes.Equal(got, want) {
		t.Fatalf("the resumed completed checkpoint prints a different front:\n%s\nwant\n%s", got, want)
	}
}
