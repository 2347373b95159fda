package htmcmp

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDesignRefs: every "DESIGN.md §N" written in a Go file, a Markdown file,
// a Makefile or a workflow names a "## N." heading DESIGN.md has. The file has
// been renumbered three times; a section that is deleted or moved fails here
// until its references follow.
func TestDesignRefs(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## (\d+)\. `).FindAllSubmatch(design, -1) {
		sections[string(m[1])] = true
	}
	if len(sections) == 0 {
		t.Fatal("DESIGN.md has no numbered \"## N.\" headings")
	}
	ref := regexp.MustCompile(`DESIGN\.md §(\d+)`)
	refs := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == ".git" || path == "bin" {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if ext := filepath.Ext(name); ext != ".go" && ext != ".md" && name != "Makefile" &&
			!strings.HasPrefix(path, ".github"+string(filepath.Separator)) {
			return nil
		}
		text, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range ref.FindAllStringSubmatch(line, -1) {
				refs++
				if !sections[m[1]] {
					t.Errorf("%s:%d: DESIGN.md §%s, but DESIGN.md has no \"## %s.\" heading", path, i+1, m[1], m[1])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if refs == 0 {
		t.Error("found no DESIGN.md §N reference at all: the pattern has rotted")
	}
}
