// Package lint is the repo's invariant checker: a small suite of static
// analyzers that mechanically enforce the disciplines the reproduction's
// credibility rests on — fixed-seed determinism of the simulated core,
// zero-overhead-when-off instrumentation hooks, stable sweep cache
// identity, and symmetric build-tag file pairs. The paper's methodology (Nakaike et al.,
// ISCA'15) compares abort rates and speedups quantitatively, so any
// nondeterminism in the engine invalidates a table; until this package
// existed the contracts lived only in comments and review convention.
//
// The design deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Reportf, testdata fixtures with `// want` comments)
// but is built entirely on the standard library: the loader feeds
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

// An Analyzer is one named invariant check. Run inspects a single
// package and reports findings through the Pass.
type Analyzer struct {
	// Name identifies the check in output and in //htmlint:allow
	// directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of the enforced contract.
	Doc string
	// Run performs the check. It must be stateless across packages:
	// the runner may invoke it on packages in any order.
	Run func(*Pass) error
}

// A Pass carries one analyzer's view of one loaded package.
type Pass struct {
	Analyzer *Analyzer
	// Pkg is the loaded, type-checked package under analysis.
	Pkg *Package
	// report collects diagnostics; use Reportf.
	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	p.report(Diagnostic{
		Check:   p.Analyzer.Name,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one reported finding. The JSON encoding is the
// `htmlint -json` CI artifact format.
type Diagnostic struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// sortDiagnostics orders findings by position then check name, so output
// is stable regardless of analyzer or map-iteration order inside the
// checker itself.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
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

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		NilgateAnalyzer,
		CachekeyAnalyzer,
		TagpairAnalyzer,
	}
}

// ByName resolves a comma-separated selection of analyzer names ("" or
// "all" selects the whole suite).
func ByName(names []string) ([]*Analyzer, error) {
	all := Analyzers()
	if len(names) == 0 {
		return all, nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		if n == "all" {
			return all, nil
		}
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown check %q (have: determinism, nilgate, cachekey, tagpair)", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// pathHasSuffix reports whether import path p is exactly suffix or ends
// with "/"+suffix — matching on whole path segments so that
// "htmcmp/internal/harness" matches "internal/harness" but
// "x/qinternal/harness" does not.
func pathHasSuffix(p, suffix string) bool {
	if p == suffix {
		return true
	}
	return len(p) > len(suffix) && p[len(p)-len(suffix)-1] == '/' && p[len(p)-len(suffix):] == suffix
}
