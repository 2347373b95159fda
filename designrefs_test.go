package htmcmp

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// roadmapRef is a reference to a numbered ROADMAP.md item ("ROADMAP item N",
// "ROADMAP N(x)"), possibly wrapped across a line break.
var roadmapRef = regexp.MustCompile(`ROADMAP\s+(item\s+)?\d`)

// roadmapRefsAllowed reports whether the file may cite ROADMAP items by
// number. ROADMAP.md renumbers its items at every re-anchor, so only the
// files that keep its history (itself, CHANGES.md) may, plus bench/, the
// benchmark module, which changes on its own schedule. Of the other root
// Markdown files only the product docs are checked; the rest are notes.
func roadmapRefsAllowed(path string) bool {
	if strings.HasPrefix(path, "bench"+string(filepath.Separator)) {
		return true
	}
	if filepath.Dir(path) != "." || filepath.Ext(path) != ".md" {
		return false
	}
	switch path {
	case "README.md", "DESIGN.md", "EXPERIMENTS.md":
		return false
	}
	return true
}

// TestDesignRefs: every "DESIGN.md §N" written in a Go file, a Markdown file,
// a Makefile or a workflow names a "## N." heading DESIGN.md has. The file has
// been renumbered three times; a section that is deleted or moved fails here
// until its references follow. The same files may not cite a ROADMAP item by
// number (roadmapRefsAllowed): say what the item is instead.
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
		if !roadmapRefsAllowed(path) {
			for _, loc := range roadmapRef.FindAllIndex(text, -1) {
				line := 1 + bytes.Count(text[:loc[0]], []byte("\n"))
				t.Errorf("%s:%d: %q cites a ROADMAP item by number, which goes stale at the next renumbering: say what it is", path, line, text[loc[0]:loc[1]])
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
