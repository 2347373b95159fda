// Package lint is the repo's invariant checker for fixed-seed determinism
// of the simulated core. The paper's methodology (Nakaike et al.,
// ISCA'15) compares abort rates and speedups quantitatively, so any
// nondeterminism in the engine invalidates a table. The root package's
// TestInvariants runs Check over the whole tree inside `go test ./...`;
// it also holds the other invariant, sweep cache identity, as a reflect
// walk over the cache-key structs.
//
// Check sees every file of the tree, build-tagged ones included: after
// the default load it reloads the packages that own tag-excluded files
// with the tags those files name (load.go), so a tagged file that does
// not type-check is an error and a tagged file in the core is held to
// the same rules as the rest.
//
// The loader is built entirely on the standard library: it feeds
// type-checked packages from `go list -export` output, so the checker
// builds and runs hermetically — no module downloads, no network, no
// third-party supply chain in the correctness tooling. There is no
// in-source escape hatch: a determinism finding is fixed in the code.
package lint

import (
	"cmp"
	"fmt"
	"slices"
)

// A Finding is one reported violation of the determinism rules.
type Finding struct {
	File    string
	Line    int
	Col     int
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s", f.File, f.Line, f.Col, f.Message)
}

// Check loads the packages matched by patterns under the module rooted at
// (or containing) dir, together with their build-tagged view, runs the
// determinism check over both and returns the findings sorted by
// position. A package of either view that fails to type-check is an
// error.
func Check(dir string, patterns ...string) ([]Finding, error) {
	pkgs, err := loadAll(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return run(pkgs), nil
}

func run(pkgs []*Package) []Finding {
	var out []Finding
	for _, pkg := range pkgs {
		out = append(out, determinism(pkg)...)
	}
	slices.SortFunc(out, func(a, b Finding) int {
		return cmp.Or(cmp.Compare(a.File, b.File), cmp.Compare(a.Line, b.Line),
			cmp.Compare(a.Col, b.Col), cmp.Compare(a.Message, b.Message))
	})
	// A file both views build is checked twice.
	return slices.Compact(out)
}
