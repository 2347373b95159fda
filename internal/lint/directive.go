package lint

import (
	"go/ast"
	"strconv"
	"strings"
)

// directivePrefix introduces every in-source htmlint annotation.
const directivePrefix = "//htmlint:"

// An allowDirective is one parsed `//htmlint:allow <check> -- <reason>`.
// It suppresses findings of the named check on its own line and on the
// line directly below it (so it can ride at the end of the offending
// line or on a comment line immediately above it).
type allowDirective struct {
	Check string
	File  string
	Line  int
	used  bool
}

// directiveSet is every htmlint directive found in a set of packages,
// plus malformed ones surfaced as findings.
type directiveSet struct {
	allows    []*allowDirective
	malformed []Finding
}

// collectDirectives scans every comment of every parsed file (including
// build-tag-excluded ones) for htmlint annotations.
func collectDirectives(pkgs []*Package) *directiveSet {
	ds := &directiveSet{}
	for _, pkg := range pkgs {
		files := append([]*ast.File{}, pkg.Files...)
		files = append(files, pkg.Ignored...)
		for _, f := range files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, directivePrefix) {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					ds.parse(c.Text[len(directivePrefix):], pos.Filename, pos.Line, pos.Column)
				}
			}
		}
	}
	return ds
}

func (ds *directiveSet) parse(body, file string, line, col int) {
	verb, rest, _ := strings.Cut(body, " ")
	bad := func(msg string) {
		ds.malformed = append(ds.malformed, Finding{
			Check: "directive", File: file, Line: line, Col: col, Message: msg,
		})
	}
	if verb != "allow" {
		bad("unknown htmlint directive " + quote(verb) + " (want allow)")
		return
	}
	spec, reason, ok := strings.Cut(rest, "--")
	check := strings.TrimSpace(spec)
	if !ok || strings.TrimSpace(reason) == "" {
		bad("//htmlint:allow needs a justification: `//htmlint:allow <check> -- <reason>`")
		return
	}
	if !knownCheck(check) {
		bad("//htmlint:allow names unknown check " + quote(check))
		return
	}
	ds.allows = append(ds.allows, &allowDirective{Check: check, File: file, Line: line})
}

// apply filters findings through the allow directives, marking each
// directive that suppressed at least one finding. It returns the
// surviving findings.
func (ds *directiveSet) apply(findings []Finding) []Finding {
	byLine := map[string][]*allowDirective{}
	for _, a := range ds.allows {
		byLine[a.File+":"+strconv.Itoa(a.Line)] = append(byLine[a.File+":"+strconv.Itoa(a.Line)], a)
	}
	match := func(d Finding, line int) bool {
		for _, a := range byLine[d.File+":"+strconv.Itoa(line)] {
			if a.Check == d.Check {
				a.used = true
				return true
			}
		}
		return false
	}
	var out []Finding
	for _, d := range findings {
		if match(d, d.Line) || match(d, d.Line-1) {
			continue
		}
		out = append(out, d)
	}
	return out
}

// unused reports every allow directive that suppressed nothing — dead
// annotations are findings themselves, which keeps each `//htmlint:allow`
// in the tree load-bearing: deleting the violation it covers without
// deleting the directive fails the build.
func (ds *directiveSet) unused() []Finding {
	var out []Finding
	for _, a := range ds.allows {
		if !a.used {
			out = append(out, Finding{
				Check: "directive", File: a.File, Line: a.Line, Col: 1,
				Message: "//htmlint:allow " + a.Check + " suppresses no finding; delete it",
			})
		}
	}
	return out
}

func knownCheck(name string) bool {
	for _, c := range checks {
		if c.name == name {
			return true
		}
	}
	return false
}

func quote(s string) string { return "\"" + s + "\"" }
