package lint

import (
	"go/ast"
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
//	// want determinism:"regex" nilgate:"another regex"
//
// on the line the finding is reported at.
var fixtureDir = filepath.Join("testdata", "src")

var wantRe = regexp.MustCompile(`([a-z]+):"((?:[^"\\]|\\.)*)"`)

type want struct {
	check   string
	re      *regexp.Regexp
	matched bool
}

// checkFixture runs every check over the fixture packages and compares the
// findings against their `// want` comments: every finding must match a
// want on its line, and every want must be matched by a finding.
func checkFixture(t *testing.T, patterns ...string) {
	t.Helper()
	pkgs, err := load(fixtureDir, patterns...)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	wants := collectWants(t, pkgs)
	for _, f := range run(pkgs) {
		matched := false
		for _, w := range wants[f.File+":"+strconv.Itoa(f.Line)] {
			if w.check == f.Check && w.re.MatchString(f.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: expected %s finding matching %q, got none", key, w.check, w.re)
			}
		}
	}
}

// collectWants scans every parsed file of the fixture — including
// build-tag-excluded ones, where tagpair findings land — for want
// comments, keyed by file:line.
func collectWants(t *testing.T, pkgs []*Package) map[string][]*want {
	t.Helper()
	wants := map[string][]*want{}
	for _, pkg := range pkgs {
		for _, f := range append(append([]*ast.File{}, pkg.Files...), pkg.Ignored...) {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					body, ok := strings.CutPrefix(c.Text, "// want ")
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					key := pos.Filename + ":" + strconv.Itoa(pos.Line)
					matches := wantRe.FindAllStringSubmatch(body, -1)
					if len(matches) == 0 {
						t.Fatalf("%s: malformed want comment %q", key, c.Text)
					}
					for _, m := range matches {
						unq, err := strconv.Unquote(`"` + m[2] + `"`)
						if err != nil {
							t.Fatalf("%s: bad want pattern %q: %v", key, m[2], err)
						}
						re, err := regexp.Compile(unq)
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", key, unq, err)
						}
						wants[key] = append(wants[key], &want{check: m[1], re: re})
					}
				}
			}
		}
	}
	return wants
}

func fixtureFindings(t *testing.T, patterns ...string) []Finding {
	t.Helper()
	fs, err := Check(fixtureDir, patterns...)
	if err != nil {
		t.Fatalf("checking fixture: %v", err)
	}
	return fs
}

// TestSuiteOnFixtures runs the suite over all the check fixtures, proving
// the checks do not cross-fire: each want in the tree must be matched.
func TestSuiteOnFixtures(t *testing.T) {
	checkFixture(t, "./internal/...")
}

func TestDeterminism(t *testing.T) {
	checkFixture(t, "./internal/htm")
}

// TestDeterminismSkipsHostPackages proves the core-path scoping: the
// host fixture reads the wall clock freely and must yield nothing
// (the directive findings it also hosts are exercised separately).
func TestDeterminismSkipsHostPackages(t *testing.T) {
	for _, f := range fixtureFindings(t, "./host") {
		if f.Check == "determinism" {
			t.Errorf("determinism fired outside the core: %s", f)
		}
	}
}

func TestNilgate(t *testing.T) {
	checkFixture(t, "./internal/mem")
}

// TestNilgateExemptsProviders: the packages that implement the hooks
// dereference them freely without findings.
func TestNilgateExemptsProviders(t *testing.T) {
	for _, f := range fixtureFindings(t, "./internal/obs", "./internal/chaos") {
		t.Errorf("nilgate fired in a provider package: %s", f)
	}
}

func TestTagpair(t *testing.T) {
	checkFixture(t, "./internal/adapt")
}

// TestDirectiveFindings runs the suite over the host fixture, which
// deliberately carries one unused allow and three malformed directives;
// each must surface as a "directive" finding and nothing else may fire.
func TestDirectiveFindings(t *testing.T) {
	fs := fixtureFindings(t, "./host")
	wantSubstrings := []string{
		"suppresses no finding",
		"needs a justification",
		"unknown check \"nosuchcheck\"",
		"unknown htmlint directive \"frobnicate\"",
	}
	var all strings.Builder
	for _, f := range fs {
		all.WriteString("  " + f.String() + "\n")
		if f.Check != "directive" {
			t.Errorf("non-directive finding in host fixture: %s", f)
		}
	}
	if len(fs) != len(wantSubstrings) {
		t.Fatalf("got %d findings, want %d:\n%s", len(fs), len(wantSubstrings), all.String())
	}
	for _, want := range wantSubstrings {
		if !strings.Contains(all.String(), want) {
			t.Errorf("no finding mentions %q:\n%s", want, all.String())
		}
	}
}

// TestLoadShapes sanity-checks the loader on the fixture module: the
// tag-excluded twin must be parsed into Ignored, and import paths must
// be the real module paths.
func TestLoadShapes(t *testing.T) {
	pkgs, err := load(fixtureDir, "./internal/adapt")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.Path != "fixmod/internal/adapt" {
		t.Errorf("Path = %q", p.Path)
	}
	if len(p.Files) != 1 || len(p.Ignored) != 1 {
		t.Errorf("Files/Ignored = %d/%d, want 1/1", len(p.Files), len(p.Ignored))
	}
	if p.Types == nil || p.Types.Scope().Lookup("auditLeak") == nil {
		t.Error("type info missing for built file")
	}
}

func TestLoadRejectsBrokenPatterns(t *testing.T) {
	if _, err := Check(fixtureDir, "./does/not/exist"); err == nil {
		t.Error("Check on a nonexistent pattern did not error")
	}
}
