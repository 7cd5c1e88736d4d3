package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// citedDocs are the documents whose test, benchmark and fuzz names a
// reader is expected to run: the user-facing docs, not the change log.
var citedDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md", "bench/README.md"}

var (
	citedName   = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*\*?`)
	definedName = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*)\(`)
)

// definedTests returns the Test, Benchmark and Fuzz functions the
// _test.go files of dir define, and, when recursive, those of every
// directory below it but hidden ones (.git and build outputs).
func definedTests(dir string, recursive bool) ([]string, error) {
	var names []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != dir && (!recursive || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range definedName.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
		return err
	})
	return names, err
}

// TestDocsCiteDefinedTests: every Test…, Benchmark… or Fuzz… name the
// docs cite is defined by some _test.go file of the repository, bench/
// included, so a deleted or renamed test cannot leave a doc pointing at
// nothing. A cited name that ends in * matches any name it prefixes.
func TestDocsCiteDefinedTests(t *testing.T) {
	defined, err := definedTests(".", true)
	if err != nil {
		t.Fatal(err)
	}
	isDefined := func(cited string) bool {
		prefix, isPrefix := strings.CutSuffix(cited, "*")
		for _, name := range defined {
			if name == cited || isPrefix && strings.HasPrefix(name, prefix) {
				return true
			}
		}
		return false
	}

	for _, pattern := range citedDocs {
		files, _ := filepath.Glob(pattern)
		if len(files) == 0 {
			t.Fatalf("no document matches %s", pattern)
		}
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(src), "\n") {
				for _, cited := range citedName.FindAllString(line, -1) {
					if !isDefined(cited) {
						t.Errorf("%s:%d cites %s, which no _test.go defines", file, i+1, cited)
					}
				}
			}
		}
	}
}

// goTest is one go test command of the CI workflow: its -run pattern,
// its -fuzz target and its package paths.
type goTest struct {
	run, fuzz string
	pkgs      []string
}

// ciGoTests finds the go test commands of a workflow. A command is the
// flag and ./path words after "go [-C dir] test", across the lines of
// a folded run block; -C dir prefixes the paths.
func ciGoTests(workflow string) []goTest {
	var tests []goTest
	f := strings.Fields(workflow)
	for i := 0; i+2 < len(f); i++ {
		if f[i] != "go" {
			continue
		}
		dir, j := ".", i+1
		if f[j] == "-C" && j+2 < len(f) {
			dir, j = f[j+1], j+2
		}
		if f[j] != "test" {
			continue
		}
		var gt goTest
		for j++; j < len(f) && (strings.HasPrefix(f[j], "-") || strings.HasPrefix(f[j], "./")); j++ {
			flag, value, _ := strings.Cut(f[j], "=")
			if flag == "-run" && value == "" && j+1 < len(f) {
				j++
				value = f[j]
			}
			switch value = strings.Trim(value, `'"`); {
			case flag == "-run":
				gt.run = value
			case flag == "-fuzz":
				gt.fuzz = value
			case strings.HasPrefix(flag, "./"):
				gt.pkgs = append(gt.pkgs, filepath.Join(dir, flag))
			}
		}
		tests = append(tests, gt)
	}
	return tests
}

// TestCISelectorsMatchTests: every -fuzz target, and every |
// alternative of each -run pattern other than ^$, in the CI workflow
// matches a test defined in the packages its command names, so a
// deleted or renamed test cannot leave a CI step selecting nothing.
func TestCISelectorsMatchTests(t *testing.T) {
	src, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	runs, fuzzes := 0, 0
	for _, gt := range ciGoTests(string(src)) {
		var defined []string
		for _, pkg := range gt.pkgs {
			dir, recursive := strings.CutSuffix(pkg, "...")
			names, err := definedTests(filepath.Clean(dir), recursive)
			if err != nil {
				t.Fatal(err)
			}
			defined = append(defined, names...)
		}
		var selectors []string
		if gt.run != "" {
			runs++
			selectors = strings.Split(gt.run, "|")
		}
		if gt.fuzz != "" {
			fuzzes++
			selectors = append(selectors, gt.fuzz)
		}
		for _, sel := range selectors {
			if sel != "^$" && !slices.ContainsFunc(defined, regexp.MustCompile(sel).MatchString) {
				t.Errorf("ci.yml selects %q in %v, which matches no test there", sel, gt.pkgs)
			}
		}
	}
	if runs == 0 || fuzzes == 0 {
		t.Fatalf("found %d -run patterns and %d -fuzz targets in ci.yml, want some of each", runs, fuzzes)
	}
}
