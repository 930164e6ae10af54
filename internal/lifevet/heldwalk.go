package lifevet

import (
	"go/ast"
	"go/token"
)

// walkStmts walks one function body in execution order, carrying the
// set of mutexes held at each point. Sequential statements share one
// held-set (a Lock in statement 3 is held in statement 4); branch bodies
// get copies; a defer or go statement contributes only its argument
// evaluation (defer mu.Unlock() is the canonical held-to-end pattern, so
// the lock stays held, and a goroutine runs elsewhere). What a node
// means under held locks is scan's business (lockdiscipline.go); the
// walk itself reports only a select with no default clause.
func (w *lockWalker) walkStmts(stmts []ast.Stmt, held map[string]token.Pos) {
	for _, s := range stmts {
		w.walkStmt(s, held)
	}
}

func (w *lockWalker) walkStmt(s ast.Stmt, held map[string]token.Pos) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.walkStmts(s.List, held)
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt, held)
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		w.scan(s.Cond, held, false)
		w.walkStmts(s.Body.List, copyHeld(held))
		if s.Else != nil {
			w.walkStmt(s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		w.scan(s.Cond, held, false)
		body := copyHeld(held)
		w.walkStmts(s.Body.List, body)
		if s.Post != nil {
			w.walkStmt(s.Post, body)
		}
	case *ast.RangeStmt:
		w.scan(s.X, held, false)
		w.walkStmts(s.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		w.scan(s.Tag, held, false)
		w.walkCases(s.Body, held)
	case *ast.TypeSwitchStmt:
		w.walkCases(s.Body, held)
	case *ast.SelectStmt:
		hasDefault := selectHasDefault(s)
		if !hasDefault && len(held) > 0 {
			w.report(s.Pos(), "blocking select", false, held)
		}
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			w.scan(cc.Comm, held, hasDefault)
			w.walkStmts(cc.Body, copyHeld(held))
		}
	case *ast.DeferStmt:
		// The deferred call itself runs after the body, outside any
		// held-set this walk can reason about; its arguments are
		// evaluated here.
		w.scanArgs(s.Call, held)
	case *ast.GoStmt:
		// The goroutine runs elsewhere; only argument evaluation happens
		// under the lock.
		w.scanArgs(s.Call, held)
	default:
		w.scan(s, held, false)
	}
}

func (w *lockWalker) walkCases(body *ast.BlockStmt, held map[string]token.Pos) {
	for _, c := range body.List {
		if cl, ok := c.(*ast.CaseClause); ok {
			w.walkStmts(cl.Body, copyHeld(held))
		}
	}
}

func (w *lockWalker) scanArgs(call *ast.CallExpr, held map[string]token.Pos) {
	for _, a := range call.Args {
		w.scan(a, held, false)
	}
}

func copyHeld(h map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}
