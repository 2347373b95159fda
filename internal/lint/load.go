package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"go/version"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked package.
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
	Info  *types.Info
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

// loadAll returns the packages matched by patterns in the default build
// configuration, followed by their tagged view: the packages that own
// build-tag-excluded files, reloaded once with every tag those files name.
// The `!tag` side of a tag is the default view itself.
func loadAll(dir string, patterns ...string) ([]*Package, error) {
	pkgs, targets, err := load(dir, nil, patterns...)
	if err != nil {
		return nil, err
	}
	tags, owners, err := taggedView(targets)
	if err != nil || len(owners) == 0 {
		return pkgs, err
	}
	tagged, _, err := load(dir, tags, owners...)
	if err != nil {
		return nil, err
	}
	return append(pkgs, tagged...), nil
}

// taggedView collects the tags named by the //go:build lines of the
// files the default configuration excludes from targets, and the import
// paths of the packages that own such files. Release tags (go1.N) and
// "ignore" are the toolchain's, not the tree's, and are not collected.
func taggedView(targets []*listPkg) (tags, owners []string, err error) {
	seen := map[string]bool{}
	for _, t := range targets {
		owned := false
		for _, name := range t.IgnoredGoFiles {
			expr, err := buildConstraint(filepath.Join(t.Dir, name))
			if err != nil {
				return nil, nil, err
			}
			if expr == nil {
				continue
			}
			expr.Eval(func(tag string) bool {
				if tag != "ignore" && !version.IsValid(tag) {
					owned = true
					if !seen[tag] {
						seen[tag] = true
						tags = append(tags, tag)
					}
				}
				return false
			})
		}
		if owned {
			owners = append(owners, t.ImportPath)
		}
	}
	sort.Strings(tags)
	return tags, owners, nil
}

// buildConstraint returns the //go:build expression of the file at path,
// or nil if it has none.
func buildConstraint(path string) (constraint.Expr, error) {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.PackageClauseOnly|parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %v", path, err)
	}
	for _, cg := range f.Comments {
		if cg.Pos() > f.Package {
			break
		}
		for _, c := range cg.List {
			if constraint.IsGoBuild(c.Text) {
				expr, err := constraint.Parse(c.Text)
				if err != nil {
					return nil, fmt.Errorf("%s: %v", path, err)
				}
				return expr, nil
			}
		}
	}
	return nil, nil
}

// load enumerates, parses and type-checks the packages matched by
// patterns under the module rooted at (or containing) dir. Dependencies
// — standard library and module-internal alike — are resolved from
// compiler export data produced by `go list -export`, so loading works
// without network access and without re-type-checking the dependency
// closure from source. CGO is disabled for hermeticity: the pure-Go
// fallbacks of the few cgo-capable stdlib packages are what get
// analyzed, matching how CI builds the tree. It also returns the `go list`
// entries of the matched packages.
func load(dir string, tags []string, patterns ...string) ([]*Package, []*listPkg, error) {
	args := []string{
		"list", "-e=false", "-test", "-deps", "-export",
		"-json=ImportPath,Dir,Standard,DepOnly,ForTest,Export,GoFiles,TestGoFiles,XTestGoFiles,IgnoredGoFiles",
	}
	what := strings.Join(patterns, " ")
	if len(tags) > 0 {
		args = append(args, "-tags", strings.Join(tags, ","))
		what = "-tags " + strings.Join(tags, ",") + " " + what
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("go list %s: %v\n%s", what, err, stderr.String())
	}

	exports := map[string]string{} // import path -> export data file
	var targets []*listPkg
	dec := json.NewDecoder(&stdout)
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		// Test variants ("q [p.test]") are what external tests import;
		// synthetic test mains ("p.test") are never imported. The plain
		// entries carry everything we analyze.
		if p.ForTest != "" || strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		if !p.DepOnly && !p.Standard {
			q := p
			targets = append(targets, &q)
		}
	}
	if len(targets) == 0 {
		return nil, nil, fmt.Errorf("go list %s matched no packages", what)
	}

	fset := token.NewFileSet()
	imp := newImporter(fset, exports, "")

	var pkgs []*Package
	for _, t := range targets {
		base, err := checkPackage(fset, imp, t, append(t.GoFiles, t.TestGoFiles...), t.ImportPath)
		if err != nil {
			return nil, nil, err
		}
		pkgs = append(pkgs, base)
		if len(t.XTestGoFiles) > 0 {
			// The external test package imports what the test binary
			// links: the package with its in-package tests, and every
			// importer of it rebuilt against that ("q [p.test]").
			xtImp := newImporter(fset, exports, " ["+t.ImportPath+".test]")
			xt, err := checkPackage(fset, xtImp, t, t.XTestGoFiles, t.ImportPath+"_test")
			if err != nil {
				return nil, nil, err
			}
			xt.Path = t.ImportPath // policy follows the directory's path
			pkgs = append(pkgs, xt)
		}
	}
	return pkgs, targets, nil
}

// checkPackage parses and type-checks one set of files as a package.
func checkPackage(fset *token.FileSet, imp types.Importer, t *listPkg, names []string, path string) (*Package, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	if _, err := conf.Check(path, fset, files, info); err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Info: info}, nil
}

// newImporter resolves every import from compiler export data, preferring
// a path's test variant (path+variant) over its plain build. One importer
// maps each path to exactly one *types.Package regardless of the order
// targets are checked in.
func newImporter(fset *token.FileSet, exports map[string]string, variant string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path+variant]
		if !ok {
			f, ok = exports[path]
		}
		if !ok {
			return nil, fmt.Errorf("no export data for %q (not in the `go list -test -deps` closure)", path)
		}
		return os.Open(f)
	})
}
