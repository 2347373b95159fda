package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// sweepCover is the census: every function the shipped sweep never runs,
// with the customer that keeps it.
const sweepCover = "testdata/sweep_cover.txt"

// sweepCoverHeader opens sweepCover; -update writes it back unchanged.
const sweepCoverHeader = `# Functions a cold then warm ` + "`htmbench -exp all -scale test -repeats 2 -jobs 2`" + `
# never executes, from a -cover build of htmbench (TestSweepCover). One row per
# function: its file, its receiver-qualified name and one customer tag. A
# directory with * stands for a package none of whose functions run. Tags:
#   cli:<command> <flag>   the flag of a command under cmd/ that runs it
#   oracle:<Test>          a Test or Fuzz function that drives it
#   example:<dir>          a program under examples/
#   bench-only             called from the bench/ module
#   paper:<section>        a modelled guarantee of the paper no table reaches
#   safety:<what>          an error, panic or deadlock path
#   none                   no customer: delete the function
# Functions without statements are not listed. Regenerate the rows with
#   go test -count=1 -run '^TestSweepCover$' ./cmd/htmbench -update
# (make sweep-cover), which keeps the tags written and tags new rows none.
`

// TestSweepCover holds testdata/sweep_cover.txt to what the tables run. It
// builds htmbench with coverage over the whole module, runs `-exp all -scale
// test` cold and then warm on one cache, and fails on an unreached function
// the census does not list, on a row whose function runs or is gone, on a
// row tagged none, and on a tag that names no flag, test, example or bench/
// caller. Every function no shipped command, example, table or bench/
// reaches thus has a named customer or goes.
func TestSweepCover(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a coverage-instrumented htmbench and runs the test-scale sweep")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool on PATH")
	}
	dir := t.TempDir()
	bin, covdir, profile := filepath.Join(dir, "htmbench"), filepath.Join(dir, "cover"), filepath.Join(dir, "cover.txt")
	if err := os.Mkdir(covdir, 0o755); err != nil {
		t.Fatal(err)
	}
	goTool(t, "build", "-cover", "-coverpkg=htmcmp/...", "-o", bin, ".")
	for _, pass := range []string{"cold", "warm"} {
		cmd := exec.Command(bin, "-exp", "all", "-scale", "test", "-repeats", "2", "-jobs", "2",
			"-progress=false", "-cache-dir", filepath.Join(dir, "cache"))
		cmd.Env = append(os.Environ(), "GOCOVERDIR="+covdir)
		var stderr strings.Builder
		cmd.Stdout, cmd.Stderr = io.Discard, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s sweep: %v\n%s", pass, err, stderr.String())
		}
	}
	goTool(t, "tool", "covdata", "textfmt", "-i", covdir, "-o", profile)
	funcs, err := coverFuncs(profile, "../..")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := readCensus(sweepCover)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		rows = censusRows(funcs, rows)
		if err := os.WriteFile(sweepCover, []byte(sweepCoverHeader+formatCensus(rows)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range censusProblems(funcs, rows, "../..") {
		t.Error(p)
	}
}

// goTool runs the go command in this directory with the local toolchain.
func goTool(t *testing.T, args ...string) {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
}

// coverFunc is one function of a covered file: where it is, whether it has
// statements and whether any of them ran.
type coverFunc struct {
	file, name string // module-relative file, receiver-qualified name
	line       int
	stmts, ran int
}

func (f coverFunc) key() string { return f.file + " " + f.name }

// block is one counter of a text coverage profile.
type block struct {
	start, end [2]int // line, column
	stmts      int
	count      int
}

// coverFuncs reads a text coverage profile of module htmcmp rooted at root
// and returns every function of every file it covers, in file and source
// order. A function's statements are those of the blocks inside it, as
// `go tool cover -func` counts them.
func coverFuncs(profile, root string) ([]coverFunc, error) {
	f, err := os.Open(profile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	blocks := map[string][]block{}
	line := regexp.MustCompile(`^htmcmp/(\S+\.go):(\d+)\.(\d+),(\d+)\.(\d+) (\d+) (\d+)$`)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		m := line.FindStringSubmatch(sc.Text())
		if m == nil {
			continue // the mode line
		}
		n := make([]int, 6)
		for i := range n {
			n[i], _ = strconv.Atoi(m[i+2])
		}
		blocks[m[1]] = append(blocks[m[1]], block{[2]int{n[0], n[1]}, [2]int{n[2], n[3]}, n[4], n[5]})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("%s covers no file of htmcmp", profile)
	}
	files := make([]string, 0, len(blocks))
	for file := range blocks {
		files = append(files, file)
	}
	sort.Strings(files)
	var funcs []coverFunc
	for _, file := range files {
		fset := token.NewFileSet()
		src, err := parser.ParseFile(fset, filepath.Join(root, file), nil, 0)
		if err != nil {
			return nil, err
		}
		for _, decl := range src.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			from, to := fset.Position(fd.Pos()), fset.Position(fd.End())
			fn := coverFunc{file: file, name: funcName(fd), line: from.Line}
			for _, b := range blocks[file] {
				if before(b.start, [2]int{from.Line, from.Column}) || before([2]int{to.Line, to.Column}, b.end) {
					continue
				}
				fn.stmts += b.stmts
				if b.count > 0 {
					fn.ran += b.stmts
				}
			}
			funcs = append(funcs, fn)
		}
	}
	return funcs, nil
}

func before(a, b [2]int) bool { return a[0] < b[0] || a[0] == b[0] && a[1] < b[1] }

// funcName is fd's name, qualified by its receiver's type without type
// parameters or pointer.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// censusRow is one line of the census: a function key, or a package
// directory with name "*", and its tag.
type censusRow struct {
	file, name, tag string
}

func (r censusRow) key() string { return r.file + " " + r.name }

func readCensus(path string) ([]censusRow, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) && *update {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var rows []censusRow
	for i, l := range strings.Split(string(data), "\n") {
		f := strings.Fields(l)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) < 3 {
			return nil, fmt.Errorf("%s:%d: want a file, a function and a tag: %q", path, i+1, l)
		}
		rows = append(rows, censusRow{f[0], f[1], strings.Join(f[2:], " ")})
	}
	return rows, nil
}

// unreached returns the functions with statements none of which ran, and
// the directories in which every function with statements is one of them.
func unreached(funcs []coverFunc) (fns []coverFunc, dead map[string]bool) {
	dead = map[string]bool{}
	for _, f := range funcs {
		if f.stmts == 0 {
			continue
		}
		dir := filepath.Dir(f.file)
		if f.ran > 0 {
			dead[dir] = false
			continue
		}
		if _, seen := dead[dir]; !seen {
			dead[dir] = true
		}
		fns = append(fns, f)
	}
	return fns, dead
}

// censusRows is the census of funcs, each row tagged as in old or none: a
// package old listed whole stays one row while nothing in it runs.
func censusRows(funcs []coverFunc, old []censusRow) []censusRow {
	tags := map[string]string{}
	for _, r := range old {
		tags[r.key()] = r.tag
	}
	fns, dead := unreached(funcs)
	var rows []censusRow
	for _, f := range fns {
		dir := filepath.Dir(f.file)
		if tag, whole := tags[dir+" *"]; whole && dead[dir] {
			if len(rows) == 0 || rows[len(rows)-1].file != dir {
				rows = append(rows, censusRow{dir, "*", tag})
			}
			continue
		}
		tag, ok := tags[f.key()]
		if !ok {
			tag = "none"
		}
		rows = append(rows, censusRow{f.file, f.name, tag})
	}
	return rows
}

func formatCensus(rows []censusRow) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%-34s %-28s %s\n", r.file, r.name, r.tag)
	}
	return b.String()
}

// censusProblems compares the census rows against funcs, the functions of
// the module at root that the sweep compiled.
func censusProblems(funcs []coverFunc, rows []censusRow, root string) []string {
	fns, dead := unreached(funcs)
	exists := map[string]bool{}
	for _, f := range funcs {
		exists[f.key()] = true
	}
	tests := testNames(root)
	listed := map[string]bool{}
	var problems []string
	for _, r := range rows {
		if listed[r.key()] {
			problems = append(problems, fmt.Sprintf("%s: listed twice", r.key()))
		}
		listed[r.key()] = true
		switch {
		case r.name == "*" && !dead[r.file]:
			problems = append(problems, fmt.Sprintf("%s: listed as a package no function of which runs, but the sweep runs some or it is gone", r.file))
		case r.name != "*" && !exists[r.key()]:
			problems = append(problems, fmt.Sprintf("%s: no such function", r.key()))
		}
		if err := checkTag(r, root, tests); err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", r.key(), err))
		}
	}
	unrun := map[string]bool{}
	for _, f := range fns {
		unrun[f.key()] = true
		if !listed[f.key()] && !listed[filepath.Dir(f.file)+" *"] {
			problems = append(problems, fmt.Sprintf("%s (line %d): the sweep never runs it and the census has no row for it: tag its customer (make sweep-cover) or delete it", f.key(), f.line))
		}
	}
	for _, r := range rows {
		if r.name != "*" && exists[r.key()] && !unrun[r.key()] {
			problems = append(problems, fmt.Sprintf("%s: the sweep runs it now: delete its row", r.key()))
		}
	}
	return problems
}

var testWord = regexp.MustCompile(`\b(?:Test|Fuzz)\w*`)

// checkTag says what is wrong with r's customer tag, if anything: tests is
// the module's test functions, each of which a tag may name.
func checkTag(r censusRow, root string, tests map[string]bool) error {
	kind, what, _ := strings.Cut(r.tag, ":")
	for _, name := range testWord.FindAllString(what, -1) {
		if !tests[name] {
			return fmt.Errorf("tag %q: no test function %s", r.tag, name)
		}
	}
	switch kind {
	case "none":
		return fmt.Errorf("tagged none: name its customer or delete it")
	case "bench-only":
		// An exported function must be named under bench/; an unexported
		// one is reached through its package's exported API.
		name := r.name[strings.LastIndex(r.name, ".")+1:]
		pattern := `"htmcmp/` + filepath.Dir(r.file) + `"`
		if ast.IsExported(name) {
			pattern = `\b` + name + `\b`
		}
		if r.name == "*" || !mentions(filepath.Join(root, "bench"), pattern, true) {
			return fmt.Errorf("tagged bench-only, but nothing under bench/ names it")
		}
	case "cli":
		command, flag, _ := strings.Cut(what, " -")
		src := filepath.Join(root, "cmd", command)
		if fi, err := os.Stat(src); command == "" || flag == "" || err != nil || !fi.IsDir() {
			return fmt.Errorf("tag %q: want cli:<command> -<flag> for a command under cmd/", r.tag)
		}
		if !mentions(src, `flag\.\w+\("`+regexp.QuoteMeta(flag)+`"`, false) {
			return fmt.Errorf("tag %q: %s defines no -%s", r.tag, command, flag)
		}
	case "oracle":
		if !testWord.MatchString(what) || testWord.FindString(what) != what {
			return fmt.Errorf("tag %q: want oracle:<Test or Fuzz function>", r.tag)
		}
	case "example":
		if fi, err := os.Stat(filepath.Join(root, "examples", what)); what == "" || err != nil || !fi.IsDir() {
			return fmt.Errorf("tag %q: no directory examples/%s", r.tag, what)
		}
	case "paper", "safety":
		if strings.TrimSpace(what) == "" {
			return fmt.Errorf("tag %q: say what it models or guards", r.tag)
		}
	default:
		return fmt.Errorf("unknown tag %q", r.tag)
	}
	return nil
}

// mentions reports whether a Go file under dir, a test file only if tests
// is set, matches pattern.
func mentions(dir, pattern string, tests bool) bool {
	re := regexp.MustCompile(pattern)
	found := false
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || found || d.IsDir() || !strings.HasSuffix(path, ".go") || !tests && strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		found = err == nil && re.Match(src)
		return err
	})
	return found
}

// testNames is the set of Test and Fuzz functions tier-1 compiles: those in
// the module's test files outside bench/.
func testNames(root string) map[string]bool {
	names := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
	filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) && path != root {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range decl.FindAllSubmatch(src, -1) {
				names[string(m[1])] = true
			}
		}
		return nil
	})
	return names
}
