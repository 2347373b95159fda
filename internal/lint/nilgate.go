package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// hookTypes identifies the instrumentation handles covered by the
// zero-overhead contract: when the pointer is nil the hook must cost
// exactly one nil check, so every dereference has to sit behind a
// dominating nil check on the same handle. Keyed by declaring-package
// path suffix.
var hookTypes = map[string][]string{
	"internal/obs":   {"Tracer"},
	"internal/chaos": {"Injector", "Stream"},
	"internal/htm":   {"Witness"},
}

// nilgate mechanises the zero-overhead instrumentation discipline: any
// access through a hook-typed struct field (htm.Config.Tracer/Witness/
// Faults, the cached per-thread copies Thread.trace/faults/wit, the sweep
// and RunSpec fault injectors) must be dominated by a nil check of that
// same field chain.
//
// Only field accesses are checked: a local copied out of a field
// (`inj := s.cfg.Faults; if inj == nil { ... }`) is the other sanctioned
// idiom and needs no gate at the copy. The packages that *implement*
// the hooks (internal/obs, internal/chaos) are exempt — their internals
// manipulate the same types freely.
func nilgate(pkg *Package, report reporter) {
	if pathHasSuffix(pkg.Path, "internal/obs") || pathHasSuffix(pkg.Path, "internal/chaos") {
		return
	}
	w := &nilgateWalker{pkg: pkg, report: report}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w.stmts(fd.Body.List, guards{})
		}
	}
}

// guards is the set of canonical field-chain expressions known non-nil
// at the current program point.
type guards map[string]bool

func (g guards) clone() guards {
	c := make(guards, len(g))
	for k, v := range g {
		c[k] = v
	}
	return c
}

func (g guards) add(facts []string) guards {
	if len(facts) == 0 {
		return g
	}
	c := g.clone()
	for _, f := range facts {
		c[f] = true
	}
	return c
}

type nilgateWalker struct {
	pkg    *Package
	report reporter
}

// stmts walks a statement list, threading nil-check facts forward.
// Facts established by early-return guards (`if x == nil { return }`)
// and by nil-or-assign normalisation (`if x == nil { x = new(...) }`)
// flow to the following statements; facts never escape loops, defers,
// goroutines or function literals.
func (w *nilgateWalker) stmts(list []ast.Stmt, g guards) {
	for _, s := range list {
		w.stmt(s, g)
	}
}

func (w *nilgateWalker) stmt(s ast.Stmt, g guards) {
	switch s := s.(type) {
	case nil:
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, g)
		}
		w.cond(s.Cond, g)
		ft, ff := nilFacts(s.Cond)
		w.stmt(s.Body, g.add(ft))
		if s.Else != nil {
			w.stmt(s.Else, g.add(ff))
		}
		// Facts that hold when the condition is false dominate the code
		// after the if when the true branch cannot fall through — the
		// early-return guard idiom — or when the true branch
		// re-establishes the handle itself (nil-or-assign).
		for _, f := range ff {
			if terminates(s.Body) || assignsNonNil(s.Body, f) {
				g[f] = true
			}
		}
	case *ast.BlockStmt:
		w.stmts(s.List, g)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			w.expr(rhs, g)
		}
		for _, lhs := range s.Lhs {
			// Writing *to* the hook field is a copy, not a deref, but a
			// deeper target (x.f.g = v) dereferences the chain prefix.
			if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
				w.expr(sel.X, g)
			} else if _, ok := ast.Unparen(lhs).(*ast.Ident); !ok {
				w.expr(lhs, g)
			}
			// Any reassignment invalidates an established guard.
			if c := canonical(lhs); c != "" {
				delete(g, c)
			}
		}
	case *ast.ExprStmt:
		w.expr(s.X, g)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, g)
		}
	case *ast.DeclStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				w.expr(e, g)
				return false
			}
			return true
		})
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, g)
		}
		if s.Cond != nil {
			w.cond(s.Cond, g)
		}
		body := g.clone() // loop-carried assignments must not leak facts out
		if s.Post != nil {
			w.stmt(s.Post, body)
		}
		w.stmt(s.Body, body)
	case *ast.RangeStmt:
		w.expr(s.X, g)
		w.stmt(s.Body, g.clone())
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, g)
		}
		if s.Tag != nil {
			w.expr(s.Tag, g)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			cg := g.clone()
			for _, e := range cc.List {
				w.cond(e, cg)
			}
			w.stmts(cc.Body, cg)
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, g)
		}
		w.stmt(s.Assign, g)
		for _, c := range s.Body.List {
			w.stmts(c.(*ast.CaseClause).Body, g.clone())
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			cg := g.clone()
			if cc.Comm != nil {
				w.stmt(cc.Comm, cg)
			}
			w.stmts(cc.Body, cg)
		}
	case *ast.DeferStmt:
		// Runs at function exit: established guards may be stale.
		w.expr(s.Call.Fun, guards{})
		for _, a := range s.Call.Args {
			w.expr(a, guards{})
		}
	case *ast.GoStmt:
		w.expr(s.Call.Fun, guards{})
		for _, a := range s.Call.Args {
			w.expr(a, guards{})
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, g)
	case *ast.IncDecStmt:
		w.expr(s.X, g)
	case *ast.SendStmt:
		w.expr(s.Chan, g)
		w.expr(s.Value, g)
	case *ast.BranchStmt, *ast.EmptyStmt:
	default:
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				w.expr(e, g)
				return false
			}
			return true
		})
	}
}

// cond visits a boolean expression, threading short-circuit facts: in
// `x != nil && x.M()` the right operand is dominated by the left check,
// and in `x == nil || x.M()` by its negation.
func (w *nilgateWalker) cond(e ast.Expr, g guards) {
	switch e := ast.Unparen(e).(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			w.cond(e.X, g)
			ft, _ := nilFacts(e.X)
			w.cond(e.Y, g.add(ft))
			return
		case token.LOR:
			w.cond(e.X, g)
			_, ff := nilFacts(e.X)
			w.cond(e.Y, g.add(ff))
			return
		}
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			w.cond(e.X, g)
			return
		}
	}
	w.expr(e, g)
}

// expr checks one expression tree for unguarded hook dereferences.
func (w *nilgateWalker) expr(e ast.Expr, g guards) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.stmts(n.Body.List, guards{})
			return false
		case *ast.BinaryExpr:
			if n.Op == token.LAND || n.Op == token.LOR {
				w.cond(n, g)
				return false
			}
		case *ast.SelectorExpr:
			w.checkDeref(n.X, g)
		case *ast.StarExpr:
			w.checkDeref(n.X, g)
		}
		return true
	})
}

// checkDeref reports inner when it is an unguarded hook-typed field
// chain being dereferenced by its parent node.
func (w *nilgateWalker) checkDeref(inner ast.Expr, g guards) {
	inner = ast.Unparen(inner)
	c := canonical(inner)
	if c == "" || g[c] {
		return
	}
	sel, ok := inner.(*ast.SelectorExpr)
	if !ok {
		return // bare locals are the caller-guarded-copy idiom
	}
	if !w.isField(sel) {
		return
	}
	tv, ok := w.pkg.Info.Types[inner]
	if !ok || !isHookType(tv.Type) {
		return
	}
	w.report(inner.Pos(),
		"%s is dereferenced without a dominating '%s != nil' check "+
			"(instrumentation hooks must cost one nil check when off)", c, c)
}

func (w *nilgateWalker) isField(sel *ast.SelectorExpr) bool {
	if s, ok := w.pkg.Info.Selections[sel]; ok {
		v, ok := s.Obj().(*types.Var)
		return ok && v.IsField()
	}
	return false
}

// nilFacts extracts the field chains known non-nil when e is true (ft)
// and when e is false (ff).
func nilFacts(e ast.Expr) (ft, ff []string) {
	switch e := ast.Unparen(e).(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.NEQ:
			if c := nilCompared(e); c != "" {
				return []string{c}, nil
			}
		case token.EQL:
			if c := nilCompared(e); c != "" {
				return nil, []string{c}
			}
		case token.LAND:
			xt, _ := nilFacts(e.X)
			yt, _ := nilFacts(e.Y)
			return append(xt, yt...), nil
		case token.LOR:
			_, xf := nilFacts(e.X)
			_, yf := nilFacts(e.Y)
			return nil, append(xf, yf...)
		}
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			ft, ff = nilFacts(e.X)
			return ff, ft
		}
	}
	return nil, nil
}

// nilCompared returns the canonical chain of the non-nil side of a
// `x <op> nil` comparison, or "".
func nilCompared(e *ast.BinaryExpr) string {
	if isNilIdent(e.Y) {
		return canonical(e.X)
	}
	if isNilIdent(e.X) {
		return canonical(e.Y)
	}
	return ""
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// canonical flattens a pure identifier/selector chain ("e.cfg.Tracer")
// or returns "" for anything more complex.
func canonical(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := canonical(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	}
	return ""
}

// terminates reports whether the statement cannot fall through to the
// next statement: it ends in return, a branch, or a panic call.
func terminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "panic"
	case *ast.BlockStmt:
		return len(s.List) > 0 && terminates(s.List[len(s.List)-1])
	case *ast.IfStmt:
		return s.Else != nil && terminates(s.Body) && terminates(s.Else)
	}
	return false
}

// assignsNonNil reports whether body assigns a value other than the
// literal nil to the chain c — the `if x == nil { x = newX() }`
// normalisation pattern.
func assignsNonNil(body *ast.BlockStmt, c string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || found {
			return !found
		}
		for i, lhs := range as.Lhs {
			if canonical(lhs) == c && i < len(as.Rhs) && !isNilIdent(as.Rhs[i]) {
				found = true
			}
		}
		return true
	})
	return found
}

func isHookType(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	for suffix, names := range hookTypes {
		if pathHasSuffix(obj.Pkg().Path(), suffix) {
			for _, n := range names {
				if n == obj.Name() {
					return true
				}
			}
		}
	}
	return false
}
