// Package lint is the repo's invariant checker: a small suite of static
// checks that mechanically enforce the disciplines the reproduction's
// credibility rests on — fixed-seed determinism of the simulated core,
// zero-overhead-when-off instrumentation hooks, and symmetric build-tag
// file pairs. The paper's methodology (Nakaike et al., ISCA'15) compares
// abort rates and speedups quantitatively, so any nondeterminism in the
// engine invalidates a table. The root package's TestInvariants runs
// Check over the whole tree inside `go test ./...`; it also holds the
// fourth invariant, sweep cache identity, as a reflect walk over the
// cache-key structs.
//
// The checks are built entirely on the standard library: the loader feeds
// type-checked packages from `go list -export` output (load.go), so the
// checker builds and runs hermetically — no module downloads, no
// network, no third-party supply chain in the correctness tooling.
//
// Intentional violations are annotated in the source with
//
//	//htmlint:allow <check> -- <reason>
//
// on (or immediately above) the offending line. Directives are
// themselves checked: a missing reason or a directive that suppresses
// nothing is a finding, so every annotation in the tree stays
// load-bearing (directive.go).
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// A Finding is one reported violation. Check names the check that
// reported it ("determinism", "nilgate", "tagpair", or "directive" for a
// malformed or unused //htmlint:allow).
type Finding struct {
	Check   string
	File    string
	Line    int
	Col     int
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Check, f.Message)
}

// A reporter records one finding of the running check at pos.
type reporter func(pos token.Pos, format string, args ...any)

// checks is the suite in reporting order. Each check inspects a single
// package and must be stateless across packages. Its name is what
// //htmlint:allow cites.
var checks = []struct {
	name string
	run  func(*Package, reporter)
}{
	{"determinism", determinism},
	{"nilgate", nilgate},
	{"tagpair", tagpair},
}

// Check loads the packages matched by patterns under the module rooted at
// (or containing) dir, runs every check, applies the //htmlint:allow
// directives, and returns the surviving findings sorted by position.
// Malformed directives and allow directives that suppress nothing are
// findings too.
func Check(dir string, patterns ...string) ([]Finding, error) {
	pkgs, err := load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return run(pkgs), nil
}

func run(pkgs []*Package) []Finding {
	var raw []Finding
	for _, pkg := range pkgs {
		for _, c := range checks {
			c.run(pkg, func(pos token.Pos, format string, args ...any) {
				p := pkg.Fset.Position(pos)
				raw = append(raw, Finding{
					Check: c.name, File: p.Filename, Line: p.Line, Col: p.Column,
					Message: fmt.Sprintf(format, args...),
				})
			})
		}
	}
	ds := collectDirectives(pkgs)
	out := ds.apply(raw)
	out = append(out, ds.unused()...)
	out = append(out, ds.malformed...)
	sortFindings(out)
	return out
}

// sortFindings orders findings by position then check name, so output
// is stable regardless of check or map-iteration order inside the
// checker itself.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}

// pathHasSuffix reports whether import path p is exactly suffix or ends
// with "/"+suffix — matching on whole path segments so that
// "htmcmp/internal/harness" matches "internal/harness" but
// "x/qinternal/harness" and "htmcmp/internal/harness/sweep" do not.
func pathHasSuffix(p, suffix string) bool {
	if p == suffix {
		return true
	}
	return len(p) > len(suffix) && p[len(p)-len(suffix)-1] == '/' && p[len(p)-len(suffix):] == suffix
}
