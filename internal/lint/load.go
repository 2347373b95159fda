package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// A Package is one loaded, type-checked package plus the parsed-but-not-
// built files of its directory (build-tag-excluded sources, which the
// tagpair check needs).
type Package struct {
	// Path is the import path; external test packages carry the base
	// path so per-package-path policy (e.g. the determinism core set)
	// applies to them too.
	Path string
	Fset *token.FileSet
	// Files are the type-checked sources. For the base package this is
	// GoFiles plus in-package TestGoFiles (the same merge the test
	// binary compiles); an external test package carries XTestGoFiles.
	Files []*ast.File
	// Ignored holds files excluded from the current build configuration
	// by build constraints — parsed, never type-checked. Only set on
	// the base package of a directory.
	Ignored []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath     string
	Dir            string
	Standard       bool
	DepOnly        bool
	ForTest        string
	Export         string
	GoFiles        []string
	TestGoFiles    []string
	XTestGoFiles   []string
	IgnoredGoFiles []string
}

// load enumerates, parses and type-checks the packages matched by
// patterns under the module rooted at (or containing) dir. Dependencies
// — standard library and module-internal alike — are resolved from
// compiler export data produced by `go list -export`, so loading works
// without network access and without re-type-checking the dependency
// closure from source. CGO is disabled for hermeticity: the pure-Go
// fallbacks of the few cgo-capable stdlib packages are what get
// analyzed, matching how CI builds the tree.
func load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{
		"list", "-e=false", "-test", "-deps", "-export",
		"-json=ImportPath,Dir,Standard,DepOnly,ForTest,Export,GoFiles,TestGoFiles,XTestGoFiles,IgnoredGoFiles",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := map[string]string{} // import path -> export data file
	var targets []*listPkg
	dec := json.NewDecoder(&stdout)
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		// Test variants ("p [p.test]") and synthetic test mains
		// ("p.test") exist only so the dep closure includes test-only
		// imports; the plain entries carry everything we analyze.
		if p.ForTest != "" || strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			q := p
			targets = append(targets, &q)
		}
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("go list %s matched no packages", strings.Join(patterns, " "))
	}

	fset := token.NewFileSet()
	imp := &exportImporter{exports: exports}
	imp.gc = importer.ForCompiler(fset, "gc", imp.lookup)

	var pkgs []*Package
	for _, t := range targets {
		base, err := checkPackage(fset, imp, t, append(t.GoFiles, t.TestGoFiles...), t.ImportPath)
		if err != nil {
			return nil, err
		}
		for _, name := range t.IgnoredGoFiles {
			f, err := parseOne(fset, filepath.Join(t.Dir, name))
			if err != nil {
				return nil, err
			}
			base.Ignored = append(base.Ignored, f)
		}
		pkgs = append(pkgs, base)
		if len(t.XTestGoFiles) > 0 {
			// The external test package is checked against pure export
			// data — the only view whose type identities agree with
			// sibling imports. Export data does not carry in-package test
			// declarations, so an xtest that uses one fails here with a
			// type-check error naming the package.
			xt, err := checkPackage(fset, imp, t, t.XTestGoFiles, t.ImportPath+"_test")
			if err != nil {
				return nil, err
			}
			xt.Path = t.ImportPath // policy follows the directory's path
			pkgs = append(pkgs, xt)
		}
	}
	return pkgs, nil
}

// checkPackage parses and type-checks one set of files as a package.
func checkPackage(fset *token.FileSet, imp types.Importer, t *listPkg, names []string, path string) (*Package, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parseOne(fset, filepath.Join(t.Dir, name))
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	return &Package{
		Path:  path,
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

func parseOne(fset *token.FileSet, path string) (*ast.File, error) {
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %v", path, err)
	}
	return f, nil
}

// exportImporter resolves every import from compiler export data — one
// gc importer instance, so each path maps to exactly one *types.Package
// regardless of the order targets are checked in.
type exportImporter struct {
	exports map[string]string
	gc      types.Importer
}

func (e *exportImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return e.gc.Import(path)
}

func (e *exportImporter) lookup(path string) (io.ReadCloser, error) {
	f, ok := e.exports[path]
	if !ok {
		return nil, fmt.Errorf("no export data for %q (not in the `go list -test -deps` closure)", path)
	}
	return os.Open(f)
}
