package mbrim_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestDesignInventoryNamesEveryPackage: DESIGN.md §3's package table
// names exactly the directories under internal/ that hold non-test Go,
// so a package added, moved or deleted without its row fails here.
func TestDesignInventoryNamesEveryPackage(t *testing.T) {
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start := strings.Index(doc, "\n## 3.")
	if start < 0 {
		t.Fatal("DESIGN.md has no §3")
	}
	section := doc[start+1:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	named := map[string]bool{}
	pkg := regexp.MustCompile("`(internal/[a-z0-9/]+)`")
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 4 {
			continue
		}
		for _, m := range pkg.FindAllStringSubmatch(cells[2], -1) {
			named[m[1]] = true
		}
	}
	if len(named) == 0 {
		t.Fatal("§3's table names no internal package")
	}

	present := map[string]bool{}
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			present[filepath.ToSlash(filepath.Dir(path))] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, miss := range difference(present, named) {
		t.Errorf("%s holds Go code but has no row in DESIGN.md §3", miss)
	}
	for _, gone := range difference(named, present) {
		t.Errorf("DESIGN.md §3 names %s, which holds no Go code", gone)
	}
}

// difference lists the keys of a that b lacks, sorted.
func difference(a, b map[string]bool) []string {
	var out []string
	for k := range a {
		if !b[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
