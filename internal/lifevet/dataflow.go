package lifevet

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// dataflow.go is the SSA-lite def-use core under lockdiscipline. It
// deliberately stops short of full SSA: the analyzer needs one fact,
// single-assignment resolution — which expression a local variable
// provably holds (assigned exactly once, address never taken), so a value
// threaded through a local still matches a syntactic pattern
// (lockdiscipline's fresh buffered channel).
//
// The transitive blocking summary over the static call graph lives with
// its owner in lockdiscipline.go; everything flow-sensitive (held-sets)
// stays in the analyzers.

// defUse records, for one function body, how many times each local is
// assigned and the unique defining expression when there is exactly one.
// Address-taken locals are poisoned: a pointer can rewrite them behind
// the analyzer's back.
type defUse struct {
	pkg    *Package
	counts map[*types.Var]int
	rhs    map[*types.Var]ast.Expr
}

// buildDefUse scans body (including nested function literals: a closure
// can reassign captured locals) and indexes every definition.
func buildDefUse(pkg *Package, body ast.Node) *defUse {
	du := &defUse{pkg: pkg, counts: make(map[*types.Var]int), rhs: make(map[*types.Var]ast.Expr)}
	note := func(id *ast.Ident, rhs ast.Expr) {
		v := du.varOf(id)
		if v == nil {
			return
		}
		du.counts[v]++
		if du.counts[v] == 1 && rhs != nil {
			du.rhs[v] = rhs
		} else {
			delete(du.rhs, v)
		}
	}
	poison := func(id *ast.Ident) {
		if v := du.varOf(id); v != nil {
			du.counts[v] += 2
			delete(du.rhs, v)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				note(id, rhs)
			}
		case *ast.ValueSpec:
			for i, id := range n.Names {
				var rhs ast.Expr
				if i < len(n.Values) {
					rhs = n.Values[i]
				}
				note(id, rhs)
			}
		case *ast.IncDecStmt:
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
				poison(id)
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if e == nil {
					continue
				}
				if id, ok := ast.Unparen(e).(*ast.Ident); ok {
					poison(id)
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
					poison(id)
				}
			}
		}
		return true
	})
	return du
}

func (du *defUse) varOf(id *ast.Ident) *types.Var {
	if v, ok := du.pkg.Info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := du.pkg.Info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// resolve follows e through single-assignment locals to the expression
// that defined it, bounded to avoid cycles. A non-ident or multiply
// assigned expression resolves to itself.
func (du *defUse) resolve(e ast.Expr) ast.Expr {
	for depth := 0; depth < 8; depth++ {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return e
		}
		v := du.varOf(id)
		if v == nil || du.counts[v] != 1 {
			return e
		}
		rhs, ok := du.rhs[v]
		if !ok {
			return e
		}
		e = rhs
	}
	return e
}

// singleVar returns the variable behind e when e is a plain local
// identifier, nil otherwise.
func (du *defUse) singleVar(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	return du.varOf(id)
}

// freshChanCap reports whether e resolves to `make(chan T, n)` with a
// constant capacity n >= 1 created in this function — a channel whose
// first send provably cannot block as long as the function performs at
// most one send on it.
func (du *defUse) freshChanCap(e ast.Expr) (int64, bool) {
	call, ok := ast.Unparen(du.resolve(e)).(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return 0, false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" {
		return 0, false
	}
	if _, isBuiltin := du.pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return 0, false
	}
	tv, ok := du.pkg.Info.Types[call.Args[1]]
	if !ok || tv.Value == nil {
		return 0, false
	}
	n, ok := constant.Int64Val(constant.ToInt(tv.Value))
	if !ok || n < 1 {
		return 0, false
	}
	if tvr, ok := du.pkg.Info.Types[call]; !ok || !isChanType(tvr.Type) {
		return 0, false
	}
	return n, true
}

func isChanType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Chan)
	return ok
}
