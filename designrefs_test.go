package htmcmp

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"htmcmp/internal/harness"
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

// TestDesignExperimentIndex: DESIGN.md §11's table is harness.Experiments
// as a reader sees it. Its `htmbench -exp NAME` rows name the same
// experiments in the same order with the same paper content, and every
// entry of its Code column exists: a path under internal/, a package there,
// or pkg.Name declared in that package's non-test files. The index once
// named a features/hle module that never existed.
func TestDesignExperimentIndex(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(design), "\n## 11. ")
	section, _, _ = strings.Cut(section, "\n## ")
	row := regexp.MustCompile(`^\| ` + "`" + `htmbench -exp ([^` + "`" + `]+)` + "`" + ` \| ([^|]+) \| [^|]+ \| ([^|]+) \|$`)
	var names []string
	for _, line := range strings.Split(section, "\n") {
		m := row.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		names = append(names, m[1])
		for _, e := range harness.Experiments {
			if e.Name == m[1] && e.Paper != strings.TrimSpace(m[2]) {
				t.Errorf("DESIGN.md §11 -exp %s reproduces %q, harness.Experiments says %q", m[1], strings.TrimSpace(m[2]), e.Paper)
			}
		}
		for _, ref := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(m[3], -1) {
			if err := codeRefExists(ref[1]); err != nil {
				t.Errorf("DESIGN.md §11 -exp %s: %v", m[1], err)
			}
		}
	}
	var want []string
	for _, e := range harness.Experiments {
		want = append(want, e.Name)
	}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("DESIGN.md §11 indexes -exp %v, harness.Experiments is %v", names, want)
	}
}

// codeRefExists resolves one Code entry of DESIGN.md §11: "pkg/file.go" or
// "pkg/dir" under internal/, a bare package "pkg", or "pkg.Name" declared
// (as a func, method, type, var or const) in pkg's non-test Go files.
func codeRefExists(ref string) error {
	if strings.Contains(ref, "/") {
		_, err := os.Stat(filepath.Join("internal", ref))
		return err
	}
	pkg, name, qualified := strings.Cut(ref, ".")
	files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
	if err != nil || len(files) == 0 {
		return &fs.PathError{Op: "find package", Path: filepath.Join("internal", pkg), Err: fs.ErrNotExist}
	}
	if !qualified {
		return nil
	}
	decl := regexp.MustCompile(`(?m)^(func (\([^)]*\) )?|type |var |const )` + regexp.QuoteMeta(name) + `\b`)
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		if decl.Match(src) {
			return nil
		}
	}
	return &fs.PathError{Op: "find declaration " + name, Path: filepath.Join("internal", pkg), Err: fs.ErrNotExist}
}
