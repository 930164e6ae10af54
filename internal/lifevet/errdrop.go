package lifevet

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerErrdrop enforces error propagation in the packages that own
// durable state and remote traffic: internal/segment, the disk cache
// tier, and the federation transport. An error from a checksum, I/O,
// Close, or any other error-returning call there must be propagated,
// inspected, or logged — never discarded with a blank assignment
// (`_ = f.Close()`) or a bare call statement. A swallowed write error
// in these packages is how a fail-stop store silently serves a torn
// segment; a deliberately best-effort site (cleanup of a temp file on
// an already-failing path) records the decision with a
// `//lifevet:allow errdrop -- why` directive.
//
// Boundaries — three exemptions keep the check about *silent* drops,
// not about cleanup hygiene on paths that already fail loudly:
//
//   - `defer f.Close()` and other deferred discards are exempt —
//     close-on-error paths are fdleak's contract, and the deferred
//     best-effort close on read paths is the package idiom.
//   - a discard followed (in the same statement list) by a `return`
//     that propagates a non-nil error is exempt: the function is
//     already failing, and `f.Close(); os.Remove(tmp); return err` is
//     cleanup while the real error travels.
//   - a discard inside a block guarded by an `err != nil` condition is
//     exempt for the same reason — the failure is already being
//     handled; the discard is best-effort teardown.
//
// Calls through interfaces have no static callee and are not flagged.
// Writers that structurally cannot fail (bytes.Buffer,
// strings.Builder) are exempt.
var AnalyzerErrdrop = &Analyzer{
	Name: "errdrop",
	Doc:  "errors from I/O/checksum/Close calls in storage and federation packages must not be silently discarded",
	Run:  runErrdrop,
}

// errdropScopes are the fail-stop packages: durable segments and the
// federation transport.
var errdropScopes = []string{"internal/segment", "internal/federation"}

// neverFailRecv are receiver types whose error results are vestigial
// (interface-satisfaction errors that are documented to always be nil).
var neverFailRecv = map[string]bool{
	"bytes.Buffer": true, "strings.Builder": true,
}

func runErrdrop(m *Module, r *Reporter) {
	for _, pkg := range m.PackagesInScope(errdropScopes...) {
		for _, f := range pkg.Files {
			w := &errdropWalker{pkg: pkg, r: r}
			// Walk every function body (declarations and literals) as a
			// statement tree so each discard sees its surrounding control
			// flow: the statements after it in its block (error-propagating
			// return?) and the guards above it (err != nil block?).
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.DeferStmt:
					// A deferred FuncLit is the cleanup idiom end to end;
					// nothing under a defer is a silent drop.
					return false
				case *ast.FuncDecl:
					if n.Body != nil {
						w.walkStmts(n.Body.List, false)
					}
					return true // keep descending: FuncLits nest inside
				case *ast.FuncLit:
					w.walkStmts(n.Body.List, false)
					return true
				}
				return true
			})
		}
	}
}

// errdropWalker carries the flow context for one file: whether the
// current statement is dominated by a failing-path guard.
type errdropWalker struct {
	pkg *Package
	r   *Reporter
}

// walkStmts walks a statement list; failing is true when the list is
// dominated by an err != nil guard.
func (w *errdropWalker) walkStmts(stmts []ast.Stmt, failing bool) {
	for i, s := range stmts {
		w.walkStmt(s, stmts[i+1:], failing)
	}
}

// walkStmt dispatches one statement. rest is the tail of the enclosing
// block after s, used for the error-propagating-return exemption.
func (w *errdropWalker) walkStmt(s ast.Stmt, rest []ast.Stmt, failing bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if !failing && !w.propagatesError(rest) {
				checkDroppedCall(w.pkg, call, "call statement discards", w.r)
			}
		}
	case *ast.AssignStmt:
		if !failing && !w.propagatesError(rest) {
			checkBlankErrAssign(w.pkg, s, w.r)
		}
	case *ast.DeferStmt:
		// Deferred discards are the accepted idiom (fdleak owns the
		// close-on-every-path contract).
	case *ast.BlockStmt:
		w.walkStmts(s.List, failing)
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, nil, failing)
		}
		w.walkStmts(s.Body.List, failing || w.errGuard(s.Cond))
		if s.Else != nil {
			// The else arm of an err != nil guard is the success path.
			w.walkStmt(s.Else, nil, failing)
		}
	case *ast.ForStmt:
		w.walkStmts(s.Body.List, failing)
	case *ast.RangeStmt:
		w.walkStmts(s.Body.List, failing)
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body, failing)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body, failing)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.walkStmts(cc.Body, failing)
			}
		}
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt, rest, failing)
	case *ast.GoStmt:
		// A `go fn()` launch returns nothing itself; the FuncLit body (if
		// any) is walked by the file-level Inspect.
	}
}

// propagatesError reports whether any statement in rest (the remainder
// of the discard's own block) returns a non-nil error value — the
// signature of best-effort cleanup on an already-failing path.
func (w *errdropWalker) propagatesError(rest []ast.Stmt) bool {
	for _, s := range rest {
		ret, ok := s.(*ast.ReturnStmt)
		if !ok {
			continue
		}
		for _, res := range ret.Results {
			res = ast.Unparen(res)
			if id, ok := res.(*ast.Ident); ok && id.Name == "nil" {
				continue
			}
			tv, ok := w.pkg.Info.Types[res]
			if ok && tv.Type != nil && isErrorType(tv.Type) {
				return true
			}
		}
	}
	return false
}

// errGuard reports conditions that establish "we are already failing":
// a comparison of an error-typed expression against nil with !=, or a
// boolean combination containing one.
func (w *errdropWalker) errGuard(cond ast.Expr) bool {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch be.Op {
	case token.LAND, token.LOR:
		return w.errGuard(be.X) || w.errGuard(be.Y)
	case token.NEQ:
		for _, pair := range [][2]ast.Expr{{be.X, be.Y}, {be.Y, be.X}} {
			if id, ok := ast.Unparen(pair[1]).(*ast.Ident); !ok || id.Name != "nil" {
				continue
			}
			if tv, ok := w.pkg.Info.Types[ast.Unparen(pair[0])]; ok && tv.Type != nil && isErrorType(tv.Type) {
				return true
			}
		}
	}
	return false
}

// checkDroppedCall flags a statement-position call that returns an
// error among its results.
func checkDroppedCall(pkg *Package, call *ast.CallExpr, how string, r *Reporter) {
	fn := staticCallee(pkg.Info, call)
	if fn == nil || isNeverFail(fn) {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	if !lastResultIsError(sig) {
		return
	}
	r.Reportf(call.Pos(), "%s the error from %s; in a fail-stop storage/transport package every dropped error is a silent corruption path — propagate it, log it, or record the decision with //lifevet:allow errdrop", how, funcDisplay(fn))
}

// checkBlankErrAssign flags assignments that send an error result to _.
func checkBlankErrAssign(pkg *Package, as *ast.AssignStmt, r *Reporter) {
	// Single call on the RHS, possibly multi-value: `_ = f()`,
	// `n, _ := f()`.
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := staticCallee(pkg.Info, call)
	if fn == nil || isNeverFail(fn) {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results() == nil {
		return
	}
	for i := 0; i < sig.Results().Len() && i < len(as.Lhs); i++ {
		if !isErrorType(sig.Results().At(i).Type()) {
			continue
		}
		id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
		if !ok || id.Name != "_" {
			continue
		}
		r.Reportf(as.Pos(), "blank assignment discards the error from %s; in a fail-stop storage/transport package every dropped error is a silent corruption path — propagate it, log it, or record the decision with //lifevet:allow errdrop", funcDisplay(fn))
		return
	}
}

// lastResultIsError reports whether any result of sig is an error (the
// convention puts it last, but checking all positions is free).
func lastResultIsError(sig *types.Signature) bool {
	res := sig.Results()
	if res == nil {
		return false
	}
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			return true
		}
	}
	return false
}

// isNeverFail reports methods on writer types whose error results are
// always nil by documented contract.
func isNeverFail(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return neverFailRecv[named.Obj().Pkg().Name()+"."+named.Obj().Name()]
}
