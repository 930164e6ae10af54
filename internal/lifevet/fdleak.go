package lifevet

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerFDLeak enforces descriptor hygiene in the storage packages:
// a file (or descriptor-owning handle) obtained from os.Open, os.Create,
// os.OpenFile, os.CreateTemp, or segment.OpenSet/Reopen must be closed
// on every error-return path between the open and the point where
// ownership transfers (a defer close, an escape into a struct or return
// value, or an explicit close). Long-running engines open one
// descriptor per segment file; a leak on a rare recovery path is a
// slow-motion EMFILE outage.
//
// The check is intra-procedural and block-scoped: it follows the
// statements after the open within its enclosing block (descending into
// nested if/for/switch bodies). Ownership transfer — the handle
// returned, stored into a composite or field, or passed to another
// function — ends tracking.
var AnalyzerFDLeak = &Analyzer{
	Name: "fdleak",
	Doc:  "os.Open/os.Create/OpenSet results must be closed on all error-return paths",
	Run:  runFDLeak,
}

// fdScopes are the packages that own real descriptors.
var fdScopes = []string{"internal/segment"}

// osOpenFuncs are the descriptor-returning os entry points.
var osOpenFuncs = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
}

func runFDLeak(m *Module, r *Reporter) {
	for _, pkg := range m.PackagesInScope(fdScopes...) {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				c := &fdChecker{pkg: pkg, r: r, fn: fd}
				c.scanBlock(fd.Body.List)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						(&fdChecker{pkg: pkg, r: r, lit: lit}).scanBlock(lit.Body.List)
					}
					return true
				})
			}
		}
	}
}

type fdChecker struct {
	pkg *Package
	r   *Reporter
	fn  *ast.FuncDecl
	lit *ast.FuncLit
}

// results returns the result field list of the enclosing function.
func (c *fdChecker) results() *ast.FieldList {
	if c.fn != nil {
		return c.fn.Type.Results
	}
	return c.lit.Type.Results
}

// scanBlock looks for open-call assignments in stmts and tracks each
// one over the remainder of its block; nested blocks are scanned for
// their own opens too.
func (c *fdChecker) scanBlock(stmts []ast.Stmt) {
	for i, s := range stmts {
		if as, ok := s.(*ast.AssignStmt); ok {
			if v, errv, name, ok := c.openAssign(as); ok {
				t := &fdTrack{c: c, v: v, errv: errv, openName: name, openPos: as.Pos(), firstCheck: true}
				t.walk(stmts[i+1:], false)
			}
		}
		// Recurse to find opens that happen inside nested blocks.
		switch s := s.(type) {
		case *ast.BlockStmt:
			c.scanBlock(s.List)
		case *ast.IfStmt:
			c.scanBlock(s.Body.List)
			if b, ok := s.Else.(*ast.BlockStmt); ok {
				c.scanBlock(b.List)
			}
		case *ast.ForStmt:
			c.scanBlock(s.Body.List)
		case *ast.RangeStmt:
			c.scanBlock(s.Body.List)
		case *ast.SwitchStmt:
			for _, cc := range s.Body.List {
				if cl, ok := cc.(*ast.CaseClause); ok {
					c.scanBlock(cl.Body)
				}
			}
		}
	}
}

// openAssign matches `f, err := <open>(...)` (or `f, err = ...`) and
// returns the descriptor variable, the error variable, and the open
// function's display name.
func (c *fdChecker) openAssign(as *ast.AssignStmt) (v, errv *types.Var, name string, ok bool) {
	if len(as.Rhs) != 1 || len(as.Lhs) < 1 {
		return nil, nil, "", false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil, nil, "", false
	}
	fn := staticCallee(c.pkg.Info, call)
	if fn == nil {
		return nil, nil, "", false
	}
	switch {
	case isPkgFunc(fn, "os") && osOpenFuncs[fn.Name()]:
		name = "os." + fn.Name()
	case fn.Pkg() != nil && PathInScope(fn.Pkg().Path(), "internal/segment") &&
		(fn.Name() == "OpenSet" || fn.Name() == "Reopen"):
		name = fn.Name()
	default:
		return nil, nil, "", false
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil, nil, "", false
	}
	v, ok = c.defOrUse(id)
	if !ok {
		return nil, nil, "", false
	}
	if len(as.Lhs) > 1 {
		if eid, ok := as.Lhs[len(as.Lhs)-1].(*ast.Ident); ok {
			errv, _ = c.defOrUse(eid)
		}
	}
	return v, errv, name, true
}

func (c *fdChecker) defOrUse(id *ast.Ident) (*types.Var, bool) {
	if v, ok := c.pkg.Info.Defs[id].(*types.Var); ok {
		return v, true
	}
	v, ok := c.pkg.Info.Uses[id].(*types.Var)
	return v, ok
}

// fdTrack follows one opened descriptor through its block.
type fdTrack struct {
	c        *fdChecker
	v        *types.Var
	errv     *types.Var
	openName string
	openPos  token.Pos
	// firstCheck is true until the descriptor is first used: the open's
	// own `if err != nil { return }` arm runs with an invalid handle and
	// owes no close.
	firstCheck bool
}

// walk processes stmts in order; closed reports whether a close has
// already executed on this path. Returns true when tracking ended
// (deferred close, escape, or kill).
func (t *fdTrack) walk(stmts []ast.Stmt, closed bool) bool {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.DeferStmt:
			if t.callsClose(s.Call) || t.funcLitCloses(s.Call) {
				return true
			}
			if t.mentions(s) {
				return true // handle captured by deferred cleanup
			}
		case *ast.ExprStmt:
			if t.closesIn(s) {
				closed = true
				continue
			}
			if t.escapes(s) {
				return true
			}
			t.noteUse(s)
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					if v, _ := t.c.defOrUse(id); v == t.v {
						return true // reassigned (f = nil ownership idiom)
					}
				}
			}
			if t.closesIn(s) {
				closed = true
				continue
			}
			if t.escapes(s) {
				return true
			}
			t.noteUse(s)
		case *ast.ReturnStmt:
			if t.mentions(s) {
				return true // returned to the caller: ownership transfers
			}
			if !closed && t.errorReturn(s) && !t.firstCheck {
				t.c.r.Reportf(s.Pos(), "%s result %q (opened at %s) is not closed on this error-return path", t.openName, t.v.Name(), t.c.pkg.Fset.Position(t.openPos))
			}
		case *ast.IfStmt:
			// The open's own error check: the handle is invalid inside it.
			if s.Init == nil && t.firstCheck && t.errv != nil && t.condChecksErr(s.Cond) {
				t.firstCheck = false
				continue
			}
			if s.Init != nil {
				if t.closesIn(s.Init) {
					closed = true
				} else if t.escapes(s.Init) {
					return true
				}
				t.noteUse(s.Init)
			}
			t.noteUse(s.Cond)
			if t.walk(s.Body.List, closed) {
				return true
			}
			if b, ok := s.Else.(*ast.BlockStmt); ok {
				if t.walk(b.List, closed) {
					return true
				}
			}
		case *ast.BlockStmt:
			if t.walk(s.List, closed) {
				return true
			}
		case *ast.ForStmt:
			if t.escapes(s) {
				return true
			}
			if t.walk(s.Body.List, closed) {
				return true
			}
		case *ast.RangeStmt:
			if t.escapes(s) {
				return true
			}
			if t.walk(s.Body.List, closed) {
				return true
			}
		case *ast.SwitchStmt:
			t.noteUse(s)
			for _, cc := range s.Body.List {
				if cl, ok := cc.(*ast.CaseClause); ok {
					if t.walk(cl.Body, closed) {
						return true
					}
				}
			}
		default:
			if t.escapes(s) {
				return true
			}
			t.noteUse(s)
		}
	}
	return false
}

// closesIn reports a f.Close() call anywhere in n (statement
// expressions and if-statement initializers; branch bodies are walked
// separately so their closes stay branch-scoped).
func (t *fdTrack) closesIn(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && t.callsClose(c) {
			found = true
		}
		return !found
	})
	return found
}

// callsClose matches f.Close().
func (t *fdTrack) callsClose(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Close" {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	v, _ := t.c.defOrUse(id)
	return v == t.v
}

// funcLitCloses matches `defer func() { ... f.Close() ... }()`.
func (t *fdTrack) funcLitCloses(call *ast.CallExpr) bool {
	lit, ok := call.Fun.(*ast.FuncLit)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(lit, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && t.callsClose(c) {
			found = true
		}
		return !found
	})
	return found
}

// mentions reports any appearance of the tracked variable in n.
func (t *fdTrack) mentions(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, _ := t.c.defOrUse(id); v == t.v {
				found = true
			}
		}
		return !found
	})
	return found
}

// noteUse clears firstCheck once the handle is actually used.
func (t *fdTrack) noteUse(n ast.Node) {
	if t.firstCheck && t.mentions(n) {
		t.firstCheck = false
	}
}

// escapes reports whether the handle's ownership leaves this function
// in n: passed as a call argument (other than to its own methods),
// stored into a composite literal, or assigned somewhere.
func (t *fdTrack) escapes(n ast.Node) bool {
	escaped := false
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			for _, arg := range n.Args {
				if t.mentions(arg) {
					escaped = true
				}
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if t.mentions(el) {
					escaped = true
				}
			}
		}
		return !escaped
	})
	return escaped
}

// errorReturn reports whether ret returns a non-nil error: the
// enclosing function has an error result and the corresponding
// expression is not the nil literal. Naked returns are assumed clean.
func (t *fdTrack) errorReturn(ret *ast.ReturnStmt) bool {
	res := t.c.results()
	if res == nil || len(ret.Results) == 0 {
		return false
	}
	for i, expr := range ret.Results {
		if i >= len(resultTypes(t.c.pkg, res)) {
			break
		}
		if !isErrorType(resultTypes(t.c.pkg, res)[i]) {
			continue
		}
		if id, ok := ast.Unparen(expr).(*ast.Ident); ok && id.Name == "nil" {
			continue
		}
		return true
	}
	return false
}

func resultTypes(pkg *Package, res *ast.FieldList) []types.Type {
	var out []types.Type
	for _, f := range res.List {
		tv := pkg.Info.Types[f.Type]
		n := len(f.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			out = append(out, tv.Type)
		}
	}
	return out
}

func isErrorType(t types.Type) bool {
	return t != nil && t.String() == "error"
}

// condChecksErr matches `err != nil` (possibly with && conjuncts) for
// the open's error variable.
func (t *fdTrack) condChecksErr(cond ast.Expr) bool {
	switch c := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		if c.Op == token.LAND || c.Op == token.LOR {
			return t.condChecksErr(c.X) || t.condChecksErr(c.Y)
		}
		if c.Op != token.NEQ {
			return false
		}
		for _, side := range []ast.Expr{c.X, c.Y} {
			if id, ok := ast.Unparen(side).(*ast.Ident); ok {
				if v, _ := t.c.defOrUse(id); v != nil && v == t.errv {
					return true
				}
			}
		}
	}
	return false
}
