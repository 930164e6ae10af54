package lifevet

import (
	"go/ast"
	"go/token"
)

// heldWalker walks one function body in execution order, carrying the
// set of mutexes held at each point. Sequential statements share one
// held-set (a Lock in statement 3 is held in statement 4); branch bodies
// get copies; a defer or go statement contributes only its argument
// evaluation (defer mu.Unlock() is the canonical held-to-end pattern, so
// the lock stays held, and a goroutine runs elsewhere). It is the one
// traversal lockdiscipline and lockorder share: what a held lock means is
// the analyzer's business, in scan.
type heldWalker struct {
	// scan inspects one expression or simple statement reached with
	// held in force, and itself updates held on Lock/Unlock calls.
	// nonBlocking marks the communication of a select that has a default
	// clause.
	scan func(n ast.Node, held map[string]token.Pos, nonBlocking bool)
	// onBlockingSelect, when set, sees each select statement that has no
	// default clause, before its clauses are walked.
	onBlockingSelect func(s *ast.SelectStmt, held map[string]token.Pos)
}

func (w *heldWalker) scanNode(n ast.Node, held map[string]token.Pos, nonBlocking bool) {
	if n != nil {
		w.scan(n, held, nonBlocking)
	}
}

func (w *heldWalker) walkStmts(stmts []ast.Stmt, held map[string]token.Pos) {
	for _, s := range stmts {
		w.walkStmt(s, held)
	}
}

func (w *heldWalker) walkStmt(s ast.Stmt, held map[string]token.Pos) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.walkStmts(s.List, held)
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt, held)
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		w.scanNode(s.Cond, held, false)
		w.walkStmts(s.Body.List, copyHeld(held))
		if s.Else != nil {
			w.walkStmt(s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		w.scanNode(s.Cond, held, false)
		body := copyHeld(held)
		w.walkStmts(s.Body.List, body)
		if s.Post != nil {
			w.walkStmt(s.Post, body)
		}
	case *ast.RangeStmt:
		w.scanNode(s.X, held, false)
		w.walkStmts(s.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		w.scanNode(s.Tag, held, false)
		w.walkCases(s.Body, held)
	case *ast.TypeSwitchStmt:
		w.walkCases(s.Body, held)
	case *ast.SelectStmt:
		hasDefault := selectHasDefault(s)
		if !hasDefault && w.onBlockingSelect != nil {
			w.onBlockingSelect(s, held)
		}
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			if cc.Comm != nil {
				w.scanNode(cc.Comm, held, hasDefault)
			}
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
		w.scanNode(s, held, false)
	}
}

func (w *heldWalker) walkCases(body *ast.BlockStmt, held map[string]token.Pos) {
	for _, c := range body.List {
		if cl, ok := c.(*ast.CaseClause); ok {
			w.walkStmts(cl.Body, copyHeld(held))
		}
	}
}

func (w *heldWalker) scanArgs(call *ast.CallExpr, held map[string]token.Pos) {
	for _, a := range call.Args {
		w.scanNode(a, held, false)
	}
}

func copyHeld(h map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}
