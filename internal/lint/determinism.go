package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// corePaths lists the packages forming the deterministic core:
// everything that executes between a fixed seed and a rendered table.
// A fixed-seed run must be bit-identical across hosts (the paper's
// tables compare abort rates and speedups quantitatively, and the
// golden determinism tests pin exact rows), so these packages must not
// read wall-clock time, host randomness, or the environment, and must
// not iterate maps where the order can escape. Host-side packages time
// the host and are exempt: internal/obs, internal/cache, the sweep
// scheduler (internal/harness/sweep, which pathHasSuffix keeps apart from
// internal/harness) and cmd/.
var corePaths = []string{
	"internal/htm",
	"internal/mem",
	"internal/tm",
	"internal/adapt",
	"internal/chaos",
	"internal/txds",
	"internal/prng",
	"internal/stamp",
	"internal/harness",
	"internal/features",
	"internal/trace",
	"internal/platform",
	"internal/stats",
	"internal/verify",
}

// bannedFuncs maps package path -> banned top-level identifiers. An
// empty set bans every reference to the package.
var bannedFuncs = map[string]map[string]bool{
	"time":         {"Now": true, "Since": true, "Until": true},
	"math/rand":    nil,
	"math/rand/v2": nil,
	"os":           {"Getenv": true, "LookupEnv": true, "Environ": true},
}

// determinism forbids nondeterminism sources in the core:
// time.Now/Since/Until, anything from math/rand (seeded or not — the
// core's only sanctioned generator is internal/prng, whose sequences
// are part of the pinned golden results), os.Getenv and friends, and
// range statements over maps that bind the iteration variables.
func determinism(pkg *Package) []Finding {
	if !inCore(pkg.Path) {
		return nil
	}
	var out []Finding
	report := func(pos token.Pos, format string, args ...any) {
		p := pkg.Fset.Position(pos)
		out = append(out, Finding{File: p.Filename, Line: p.Line, Col: p.Column, Message: fmt.Sprintf(format, args...)})
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				obj := pkg.Info.Uses[n]
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				banned, ok := bannedFuncs[obj.Pkg().Path()]
				if !ok {
					return true
				}
				if banned == nil || banned[obj.Name()] {
					report(n.Pos(),
						"%s.%s in deterministic core package %s: fixed-seed runs must be bit-identical "+
							"(use internal/prng / virtual time instead)",
						obj.Pkg().Path(), obj.Name(), pkg.Path)
				}
			case *ast.RangeStmt:
				tv, ok := pkg.Info.Types[n.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				// `for range m {}` with no iteration variables only
				// observes the count; order cannot escape.
				if bindsVariable(n.Key) || bindsVariable(n.Value) {
					report(n.Pos(),
						"map iteration order is unordered and observable here; deterministic core "+
							"code must iterate a sorted or insertion-ordered view")
				}
			}
			return true
		})
	}
	return out
}

func bindsVariable(e ast.Expr) bool {
	if e == nil {
		return false
	}
	if id, ok := e.(*ast.Ident); ok && id.Name == "_" {
		return false
	}
	return true
}

func inCore(path string) bool {
	for _, s := range corePaths {
		if pathHasSuffix(path, s) {
			return true
		}
	}
	return false
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
