package lint

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// fixtureDir is a real Go module (its own go.mod), so the production load
// path — `go list -export` plus export-data importing — is exactly what
// the tests exercise. Expectations are trailing comments of the form
//
//	// want "regex"
//
// on the line the finding is reported at.
var fixtureDir = filepath.Join("testdata", "src")

var wantRe = regexp.MustCompile(`^// want "((?:[^"\\]|\\.)*)"$`)

// checkFixture runs the check over the fixture packages, tagged view
// included, and compares the findings against their `// want` comments:
// every finding must match the want on its line, and every want must be
// matched by a finding.
func checkFixture(t *testing.T, patterns ...string) {
	t.Helper()
	pkgs, err := loadAll(fixtureDir, patterns...)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	wants := collectWants(t, pkgs)
	for _, f := range run(pkgs) {
		key := f.File + ":" + strconv.Itoa(f.Line)
		re, ok := wants[key]
		if !ok || !re.MatchString(f.Message) {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		delete(wants, key)
	}
	for key, re := range wants {
		t.Errorf("%s: expected a finding matching %q, got none", key, re)
	}
}

// collectWants scans every loaded file for want comments, keyed by
// file:line. A file both views build is scanned twice to the same effect.
func collectWants(t *testing.T, pkgs []*Package) map[string]*regexp.Regexp {
	t.Helper()
	wants := map[string]*regexp.Regexp{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, "// want ") {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					key := pos.Filename + ":" + strconv.Itoa(pos.Line)
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						t.Fatalf("%s: malformed want comment %q", key, c.Text)
					}
					unq, err := strconv.Unquote(`"` + m[1] + `"`)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", key, m[1], err)
					}
					wants[key] = regexp.MustCompile(unq)
				}
			}
		}
	}
	return wants
}

// TestSuiteOnFixtures runs the check over every core fixture at once:
// each want in the tree must be matched, and nothing else may fire.
func TestSuiteOnFixtures(t *testing.T) {
	checkFixture(t, "./internal/...")
}

func TestDeterminism(t *testing.T) {
	checkFixture(t, "./internal/htm")
}

// TestDeterminismSkipsHostPackages proves the core-path scoping: the
// host fixture reads the wall clock freely and must yield nothing.
func TestDeterminismSkipsHostPackages(t *testing.T) {
	fs, err := Check(fixtureDir, "./host")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Errorf("determinism fired outside the core: %s", f)
	}
}

// TestTaggedView covers the files only a build tag compiles: a tagged
// twin that does not type-check is an error naming the file, and a
// tagged-only core file is held to the determinism rules.
func TestTaggedView(t *testing.T) {
	t.Run("type error", func(t *testing.T) {
		_, err := Check(fixtureDir, "./broken")
		if err == nil || !strings.Contains(err.Error(), "on.go") {
			t.Fatalf("Check = %v, want an error naming broken/on.go", err)
		}
	})
	t.Run("determinism", func(t *testing.T) {
		checkFixture(t, "./internal/adapt")
	})
}

// TestLoadShapes sanity-checks the loader on the fixture module: the
// default view builds the untagged twin, the tagged view the other one,
// and import paths are the real module paths.
func TestLoadShapes(t *testing.T) {
	pkgs, err := loadAll(fixtureDir, "./internal/adapt")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("got %d packages, want the default and the tagged view", len(pkgs))
	}
	for i, want := range []string{"pair_off.go", "pair_on.go"} {
		p := pkgs[i]
		if p.Path != "fixmod/internal/adapt" {
			t.Errorf("view %d: Path = %q", i, p.Path)
		}
		if len(p.Files) != 1 || filepath.Base(p.Fset.Position(p.Files[0].Package).Filename) != want {
			t.Errorf("view %d: want exactly %s", i, want)
		}
		if len(p.Info.Uses) == 0 {
			t.Errorf("view %d: type info missing", i)
		}
	}
}

func TestLoadRejectsBrokenPatterns(t *testing.T) {
	if _, err := Check(fixtureDir, "./does/not/exist"); err == nil {
		t.Error("Check on a nonexistent pattern did not error")
	}
}
