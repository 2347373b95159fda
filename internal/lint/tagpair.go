package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"sort"
	"strings"
)

// tagSide aggregates the symbols declared by all files of one side of a
// tag. Symbol -> first declaration position (as token.Pos within the
// shared fset).
type tagSide struct {
	files []string
	decls map[string]ast.Node
}

// tagpair enforces symmetry between build-tag twin files: when one file
// in a package builds under `//go:build tag` and another under
// `//go:build !tag`, the two must declare identical sets of package-level
// symbols (types, funcs, consts, vars, and methods keyed by receiver base
// type). The repo leans on this pattern for compiled-away debug machinery
// — live_off.go/live_racecheck.go (racecheck), mutate_on.go/mutate_off.go
// (mutate_isolation) — where a symbol present on one side only either
// breaks the tagged build outright or, worse, silently changes behaviour
// between CI's race job and production simulation runs.
//
// Only single-tag constraints participate; _test.go files are exempt
// (tag-gated test helpers need no production twin).
func tagpair(pkg *Package, report reporter) {
	// sides[tag][0] is the `tag` side, sides[tag][1] the `!tag` side.
	sides := map[string]*[2]*tagSide{}

	collect := func(f *ast.File) {
		name := pkg.Fset.Position(f.Package).Filename
		if strings.HasSuffix(name, "_test.go") {
			return
		}
		tag, neg, ok := singleTagConstraint(f)
		if !ok {
			return
		}
		s := sides[tag]
		if s == nil {
			s = &[2]*tagSide{}
			sides[tag] = s
		}
		idx := 0
		if neg {
			idx = 1
		}
		if s[idx] == nil {
			s[idx] = &tagSide{decls: map[string]ast.Node{}}
		}
		s[idx].files = append(s[idx].files, name)
		collectSymbols(f, s[idx].decls)
	}
	for _, f := range pkg.Files {
		collect(f)
	}
	for _, f := range pkg.Ignored {
		collect(f)
	}

	tags := make([]string, 0, len(sides))
	for tag := range sides {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	for _, tag := range tags {
		pair := sides[tag]
		pos, neg := pair[0], pair[1]
		if pos == nil || neg == nil {
			continue // no twin to compare against
		}
		reportMissing(report, pos, neg, tag, "!"+tag)
		reportMissing(report, neg, pos, "!"+tag, tag)
	}
}

// reportMissing flags every symbol of side `have` absent from `want`.
func reportMissing(report reporter, have, want *tagSide, haveTag, wantTag string) {
	syms := make([]string, 0, len(have.decls))
	for s := range have.decls {
		syms = append(syms, s)
	}
	sort.Strings(syms)
	for _, s := range syms {
		if _, ok := want.decls[s]; !ok {
			report(have.decls[s].Pos(),
				"%s is declared under build tag %q but has no counterpart under %q "+
					"(files: %s): tagged twins must stay symmetric",
				s, haveTag, wantTag, strings.Join(want.files, ", "))
		}
	}
}

// singleTagConstraint extracts a plain `tag` or `!tag` //go:build
// constraint from f. Compound expressions do not form pairs.
func singleTagConstraint(f *ast.File) (tag string, negated, ok bool) {
	for _, cg := range f.Comments {
		if cg.Pos() > f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				return "", false, false
			}
			switch e := expr.(type) {
			case *constraint.TagExpr:
				return e.Tag, false, true
			case *constraint.NotExpr:
				if t, ok := e.X.(*constraint.TagExpr); ok {
					return t.Tag, true, true
				}
			}
			return "", false, false
		}
	}
	return "", false, false
}

// collectSymbols records f's package-level declarations into decls.
// Methods are keyed "BaseType.Name" with pointerness normalised away —
// a value-receiver no-op twin of a pointer-receiver implementation is
// symmetric for this purpose.
func collectSymbols(f *ast.File, decls map[string]ast.Node) {
	record := func(name string, n ast.Node) {
		if name == "_" || name == "init" || name == "" {
			return
		}
		if _, ok := decls[name]; !ok {
			decls[name] = n
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil || len(d.Recv.List) == 0 {
				record(d.Name.Name, d)
				continue
			}
			record(fmt.Sprintf("%s.%s", receiverBase(d.Recv.List[0].Type), d.Name.Name), d)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					record(s.Name.Name, s)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						record(id.Name, id)
					}
				}
			}
		}
	}
}

func receiverBase(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.StarExpr:
		return receiverBase(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr: // generic receiver
		return receiverBase(t.X)
	case *ast.IndexListExpr:
		return receiverBase(t.X)
	}
	return ""
}
