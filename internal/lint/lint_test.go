package lint_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"htmcmp/internal/lint"
	"htmcmp/internal/lint/linttest"
)

// TestSuiteOnFixtures runs every analyzer together over all the
// analyzer fixtures, proving the checks do not cross-fire: each want in
// the tree must be matched exactly once under the full suite.
func TestSuiteOnFixtures(t *testing.T) {
	linttest.Check(t, fixtureDir, lint.Analyzers(), "./internal/...")
}

func TestByName(t *testing.T) {
	all, err := lint.ByName(nil)
	if err != nil || len(all) != 4 {
		t.Fatalf("ByName(nil) = %d analyzers, err %v; want 4, nil", len(all), err)
	}
	two, err := lint.ByName([]string{"determinism", "cachekey"})
	if err != nil || len(two) != 2 {
		t.Fatalf("ByName(determinism,cachekey) = %d, err %v; want 2, nil", len(two), err)
	}
	if two[0].Name != "determinism" || two[1].Name != "cachekey" {
		t.Errorf("selection order not preserved: %s, %s", two[0].Name, two[1].Name)
	}
	if _, err := lint.ByName([]string{"nope"}); err == nil {
		t.Error("ByName(nope) did not error")
	}
}

func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := lint.WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var got []lint.Diagnostic
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("empty run is not a JSON array: %v\n%s", err, buf.String())
	}
	if got == nil {
		t.Error("empty run encoded as null, want []")
	}

	buf.Reset()
	ds := []lint.Diagnostic{{Check: "determinism", File: "x.go", Line: 3, Col: 9, Message: "m"}}
	if err := lint.WriteJSON(&buf, ds); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil || len(got) != 1 || got[0] != ds[0] {
		t.Fatalf("round-trip mismatch: %+v err %v", got, err)
	}
}

// TestLoadShapes sanity-checks the loader on the fixture module: the
// tag-excluded twin must be parsed into Ignored, and import paths must
// be the real module paths.
func TestLoadShapes(t *testing.T) {
	pkgs, err := lint.Load(fixtureDir, "./internal/adapt")
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
	if _, err := lint.Load(fixtureDir, "./does/not/exist"); err == nil {
		t.Error("Load on a nonexistent pattern did not error")
	}
}
