package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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

// TestDocsCiteDefinedTests: every Test…, Benchmark… or Fuzz… name the
// docs cite is defined by some _test.go file of the repository, bench/
// included, so a deleted or renamed test cannot leave a doc pointing at
// nothing. A cited name that ends in * matches any name it prefixes.
func TestDocsCiteDefinedTests(t *testing.T) {
	var defined []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir // .git and build outputs
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range definedName.FindAllSubmatch(src, -1) {
			defined = append(defined, string(m[1]))
		}
		return err
	})
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
