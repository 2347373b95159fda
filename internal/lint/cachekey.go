package lint

import (
	"go/ast"
	"go/types"
	"reflect"
	"strconv"
	"strings"
)

// requiredCachekeyStructs are the types whose JSON encoding feeds the
// sweep's content-addressed cache keys (directly or via sweep.Cell);
// they must carry the //htmlint:cachekey marker so the field rules
// below apply. Identified by (package path suffix, type name).
var requiredCachekeyStructs = [][2]string{
	{"internal/harness", "RunSpec"},
	{"internal/trace", "Options"},
	{"internal/harness/sweep", "Config"},
	{"internal/features", "CLQPoint"},
	{"internal/features", "TLSPoint"},
}

// CachekeyAnalyzer enforces sweep cache identity — the PR 5 lesson that
// a new field silently changing every existing cache key is a
// correctness bug, and that runtime-only handles must never leak into
// keys. A struct marked
//
//	//htmlint:cachekey frozen=FieldA,FieldB
//
// is checked field by field:
//
//   - pointer, func, chan, interface and map fields must carry json:"-"
//     (runtime-only attachments must not perturb identity; maps would
//     also marshal in nondeterministic-by-construction sorted-key order
//     that still couples identity to content);
//   - every serialized field must have the omitempty option, unless it
//     is named in the frozen list — the fields that predate the lint,
//     whose zero values are already baked into existing on-disk keys.
//     New fields therefore default to omitempty and old keys stay
//     stable;
//   - frozen names must refer to existing serialized fields, so the
//     list cannot rot.
var CachekeyAnalyzer = &Analyzer{
	Name: "cachekey",
	Doc: "cache-identity structs must exclude runtime-only fields via json:\"-\" and add new " +
		"serialized fields as omitempty so existing cache keys stay stable",
	Run: runCachekey,
}

func runCachekey(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, isStruct := ts.Type.(*ast.StructType)
				marker := cachekeyMarker(ts, gd)
				if marker == nil {
					if isStruct && requiresMarker(pass.Pkg.Path, ts.Name.Name) {
						pass.Reportf(ts.Pos(),
							"%s feeds sweep cache keys and must carry a //htmlint:cachekey marker",
							ts.Name.Name)
					}
					continue
				}
				if !isStruct {
					pass.Reportf(ts.Pos(), "//htmlint:cachekey marker on non-struct type %s", ts.Name.Name)
					continue
				}
				checkCachekeyStruct(pass, ts.Name.Name, st, marker)
			}
		}
	}
	return nil
}

// cachekeyMarker parses a //htmlint:cachekey directive from the type's
// doc comment (or the enclosing declaration group's). Returns the
// frozen field set, or nil when unmarked.
func cachekeyMarker(ts *ast.TypeSpec, gd *ast.GenDecl) map[string]bool {
	for _, doc := range []*ast.CommentGroup{ts.Doc, gd.Doc} {
		if doc == nil {
			continue
		}
		for _, c := range doc.List {
			if !strings.HasPrefix(c.Text, directivePrefix+"cachekey") {
				continue
			}
			frozen := map[string]bool{}
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, directivePrefix+"cachekey"))
			if names, ok := strings.CutPrefix(rest, "frozen="); ok {
				for _, n := range strings.Split(names, ",") {
					if n = strings.TrimSpace(n); n != "" {
						frozen[n] = true
					}
				}
			}
			return frozen
		}
	}
	return nil
}

func checkCachekeyStruct(pass *Pass, name string, st *ast.StructType, frozen map[string]bool) {
	seen := map[string]bool{}
	for _, field := range st.Fields.List {
		tag := fieldJSONTag(field)
		tv, ok := pass.Pkg.Info.Types[field.Type]
		if !ok {
			continue
		}
		runtimeOnly := isRuntimeOnlyType(tv.Type)
		for _, id := range fieldNames(field) {
			seen[id] = true
			if tag == "-" {
				continue // excluded from the key entirely
			}
			if runtimeOnly {
				pass.Reportf(field.Pos(),
					"%s.%s is a %s field without json:\"-\": runtime-only attachments must not "+
						"perturb sweep cache identity", name, id, typeKindWord(tv.Type))
				continue
			}
			if frozen[id] {
				continue
			}
			if !strings.Contains(tag, "omitempty") {
				pass.Reportf(field.Pos(),
					"%s.%s is serialized without omitempty: a newly added key field must omit its "+
						"zero value so existing sweep cache keys stay stable (or list it as frozen "+
						"if it predates the lint)", name, id)
			}
		}
	}
	for _, f := range sortedKeysOf(frozen) {
		if !seen[f] {
			pass.Reportf(st.Pos(), "%s freezes unknown field %q in its //htmlint:cachekey marker", name, f)
		}
	}
}

func fieldNames(field *ast.Field) []string {
	if len(field.Names) == 0 {
		// Embedded field: use the type's base name.
		name := ""
		switch t := field.Type.(type) {
		case *ast.Ident:
			name = t.Name
		case *ast.SelectorExpr:
			name = t.Sel.Name
		case *ast.StarExpr:
			if id, ok := t.X.(*ast.Ident); ok {
				name = id.Name
			}
		}
		if name == "" {
			return nil
		}
		return []string{name}
	}
	var out []string
	for _, id := range field.Names {
		out = append(out, id.Name)
	}
	return out
}

func fieldJSONTag(field *ast.Field) string {
	if field.Tag == nil {
		return ""
	}
	raw, err := strconv.Unquote(field.Tag.Value)
	if err != nil {
		return ""
	}
	return reflect.StructTag(raw).Get("json")
}

func isRuntimeOnlyType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Signature, *types.Chan, *types.Interface, *types.Map:
		return true
	}
	return false
}

func typeKindWord(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Pointer:
		return "pointer"
	case *types.Signature:
		return "func"
	case *types.Chan:
		return "chan"
	case *types.Interface:
		return "interface"
	case *types.Map:
		return "map"
	}
	return "runtime-only"
}

func requiresMarker(pkgPath, typeName string) bool {
	for _, rc := range requiredCachekeyStructs {
		if rc[1] == typeName && pathHasSuffix(pkgPath, rc[0]) {
			return true
		}
	}
	return false
}

func sortedKeysOf(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	// insertion order is map order; sort for deterministic reporting.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
