package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"unicode"
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

// TestExperimentsDocMatchesGolden pins the paper's headline numbers as
// EXPERIMENTS.md states them to the lines main prints in
// testdata/experiments.golden: E6's six front rows (resources, cost,
// flexibility), E7's possible-allocation, overshoot and attempt counts,
// and E8's sweep table (visits, possible allocations, attempts, front).
// A change that moves one of them must restate the document with the
// golden file.
func TestExperimentsDocMatchesGolden(t *testing.T) {
	docBytes, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	goldBytes, err := os.ReadFile(filepath.Join("testdata", "experiments.golden"))
	if err != nil {
		t.Fatal(err)
	}
	doc, gold := string(docBytes), string(goldBytes)

	// E6: the doc names FPGA designs without the golden's "d" prefix
	// and lists resources unsorted.
	var docE6, goldE6 []string
	for _, cells := range tableRows(docSection(doc, "E6")) {
		res := strings.Split(cells[0], ", ")
		sort.Strings(res)
		docE6 = append(docE6, fmt.Sprintf("%s c=%s f=%s", strings.Join(res, " "), strings.TrimPrefix(cells[2], "$"), cells[3]))
	}
	for _, line := range goldenSection(gold, "E6") {
		cells := strings.Split(line, "|")
		if len(cells) != 4 || !strings.HasPrefix(strings.TrimSpace(cells[2]), "$") {
			continue
		}
		res := strings.Fields(cells[0])
		for i, r := range res {
			if len(r) > 1 && r[0] == 'd' && unicode.IsUpper(rune(r[1])) {
				res[i] = r[1:]
			}
		}
		sort.Strings(res)
		cost := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(cells[2]), "$"))
		goldE6 = append(goldE6, fmt.Sprintf("%s c=%s f=%s", strings.Join(res, " "), cost, strings.TrimSpace(cells[3])))
	}
	if len(docE6) != 6 || !slices.Equal(docE6, goldE6) {
		t.Errorf("E6 front: EXPERIMENTS.md %q, golden %q", docE6, goldE6)
	}

	// E7: the same three pairs of counts, in the doc's prose cells and
	// the golden's lines.
	e7Doc := strings.Join(docSection(doc, "E7"), "\n")
	e7Gold := strings.Join(goldenSection(gold, "E7"), "\n")
	for _, p := range []struct{ doc, gold string }{
		{`([\d,]+) possible allocations \(no bus pruning\); ([\d,]+) with the useless-bus rule`, `possible allocations .*: (\d+) unpruned / (\d+) bus-pruned`},
		{`([\d,]+) of the ([\d,]+) bus-pruned possible allocations`, `estimate > implemented .*: (\d+) of (\d+) bus-pruned`},
		{`EXPLORE attempts only ([\d,]+) \(no bus pruning\) / ([\d,]+) \(with\)`, `EXPLORE implementation attempts *: (\d+) unpruned / (\d+) bus-pruned`},
	} {
		d := regexp.MustCompile(p.doc).FindStringSubmatch(e7Doc)
		g := regexp.MustCompile(p.gold).FindStringSubmatch(e7Gold)
		if d == nil || g == nil {
			t.Errorf("E7: %q matched %v in EXPERIMENTS.md, %q matched %v in the golden", p.doc, d, p.gold, g)
			continue
		}
		if d1, d2 := strings.ReplaceAll(d[1], ",", ""), strings.ReplaceAll(d[2], ",", ""); d1 != g[1] || d2 != g[2] {
			t.Errorf("E7: EXPERIMENTS.md says %s / %s, golden %s / %s", d[1], d[2], g[1], g[2])
		}
	}

	// E8: model, visits, possible allocations, attempts, front.
	var docE8, goldE8 []string
	for _, cells := range tableRows(docSection(doc, "E8")) {
		row := append([]string{cells[0]}, cells[2:]...)
		docE8 = append(docE8, strings.ReplaceAll(strings.Join(row, " "), ",", ""))
	}
	for _, line := range goldenSection(gold, "E8") {
		if f := strings.Fields(line); len(f) == 6 && f[0] != "model" {
			goldE8 = append(goldE8, strings.Join(append(f[:1], f[2:]...), " "))
		}
	}
	if len(docE8) != 3 || !slices.Equal(docE8, goldE8) {
		t.Errorf("E8 sweep: EXPERIMENTS.md %q, golden %q", docE8, goldE8)
	}
}

// docSection returns the lines of EXPERIMENTS.md's "## <id> —" section.
func docSection(doc, id string) []string {
	var out []string
	in := false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "## ") {
			in = strings.HasPrefix(line, "## "+id+" ")
			continue
		}
		if in {
			out = append(out, line)
		}
	}
	return out
}

// tableRows returns the trimmed cells of the first markdown table's
// body rows among lines.
func tableRows(lines []string) [][]string {
	var rows [][]string
	header := true
	for _, line := range lines {
		if !strings.HasPrefix(line, "|") {
			if len(rows) > 0 || !header {
				break
			}
			continue
		}
		if header || strings.HasPrefix(line, "|---") {
			header = false
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		rows = append(rows, cells)
	}
	return rows
}

// goldenSection returns the lines of the golden's "==== <id>:" block.
func goldenSection(gold, id string) []string {
	var out []string
	in := false
	for _, line := range strings.Split(gold, "\n") {
		if strings.HasPrefix(line, "==== ") {
			in = strings.HasPrefix(line, "==== "+id+":")
			continue
		}
		if in && line != "" {
			out = append(out, line)
		}
	}
	return out
}
