package lifevet

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// dataflow.go is the SSA-lite def-use core under the v2 analyzers
// (lockorder, ctxflow, durovf, errdrop) and the
// flow-sensitive refinements to the v1 set. It deliberately stops short
// of full SSA: the module's analyzers need exactly three facts —
//
//   - single-assignment resolution: which expression a local variable
//     provably holds (assigned exactly once, address never taken), so a
//     value threaded through a local still matches a syntactic pattern;
//   - global lock identity: a stable name for "the mutex field mu of
//     type Server" that two different functions agree on, so acquisition
//     edges observed in different corners of the module compose into
//     one order graph;
//   - transitive per-function summaries over the static call graph
//     (locks a call may acquire, whether a body can block), reusing
//     funcIndex/staticCallee from callgraph.go.
//
// Everything flow-sensitive on top (held-sets, guard domination) stays
// in the analyzers; this file owns the value- and identity-level facts.

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

// lockClassOf names the mutex behind a Lock/Unlock receiver expression
// in module-global terms: "pkgtail.Type.field" for a mutex field
// (resolved through the named type of the enclosing struct, so t.mu and
// s.tier.mu in different functions agree), "pkgtail.var" for a
// package-level mutex variable. Function-local mutexes (and receivers
// the type checker cannot name) return "": they cannot participate in a
// cross-function order.
func lockClassOf(pkg *Package, recv ast.Expr) string {
	switch e := ast.Unparen(recv).(type) {
	case *ast.SelectorExpr:
		tv, ok := pkg.Info.Types[e.X]
		if !ok {
			return ""
		}
		t := tv.Type
		if ptr, isPtr := t.(*types.Pointer); isPtr {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return ""
		}
		return pkgTail(named.Obj().Pkg().Path()) + "." + named.Obj().Name() + "." + e.Sel.Name
	case *ast.Ident:
		v, ok := pkg.Info.Uses[e].(*types.Var)
		if !ok {
			if v, ok = pkg.Info.Defs[e].(*types.Var); !ok {
				return ""
			}
		}
		// Package-level variables have the package itself as parent scope.
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return pkgTail(v.Pkg().Path()) + "." + v.Name()
		}
	}
	return ""
}

func pkgTail(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// lockAcq is one lock acquisition a function may perform: the global
// class, where, and — when reached through a call — via whom.
type lockAcq struct {
	class string
	pos   token.Pos
	via   string // display name of the callee chain head, "" when direct
}

// lockSummary maps every module function to the set of lock classes it
// may acquire, directly or transitively through static calls. Function
// literals are excluded throughout: a closure typically runs on another
// goroutine (or after the enclosing locks are released), so charging its
// acquisitions to the enclosing function would fabricate edges.
type lockSummary struct {
	acquires map[*types.Func]map[string]lockAcq
}

// buildLockSummary computes the transitive may-acquire sets to a
// fixpoint over the static call graph.
func buildLockSummary(ix *funcIndex) *lockSummary {
	s := &lockSummary{acquires: make(map[*types.Func]map[string]lockAcq)}
	// Direct acquisitions.
	for fn, d := range ix.decls {
		set := make(map[string]lockAcq)
		inspectOutsideFuncLits(d.decl.Body, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			path, method := mutexMethod(d.pkg.Info, call)
			if path == "" {
				return
			}
			if method != "Lock" && method != "RLock" && method != "TryLock" && method != "TryRLock" {
				return
			}
			sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if class := lockClassOf(d.pkg, sel.X); class != "" {
				if _, seen := set[class]; !seen {
					set[class] = lockAcq{class: class, pos: call.Pos()}
				}
			}
		})
		if len(set) > 0 {
			s.acquires[fn] = set
		}
	}
	// Propagate callee sets to callers until stable.
	for changed := true; changed; {
		changed = false
		for fn, d := range ix.decls {
			inspectOutsideFuncLits(d.decl.Body, func(n ast.Node) {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return
				}
				callee := origin(staticCallee(d.pkg.Info, call))
				if callee == nil || callee == fn {
					return
				}
				for class, acq := range s.acquires[callee] {
					set := s.acquires[fn]
					if set == nil {
						set = make(map[string]lockAcq)
						s.acquires[fn] = set
					}
					if _, seen := set[class]; !seen {
						via := funcDisplay(callee)
						if acq.via != "" {
							via = funcDisplay(callee) + " -> " + acq.via
						}
						set[class] = lockAcq{class: class, pos: call.Pos(), via: via}
						changed = true
					}
				}
			})
		}
	}
	return s
}

// inspectOutsideFuncLits walks n, calling f on every node except those
// inside nested function literals.
func inspectOutsideFuncLits(n ast.Node, f func(ast.Node)) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if m != nil {
			f(m)
		}
		return true
	})
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}

// contextParams returns the named context.Context parameters of a
// function declaration (blank ones excluded: `_ context.Context` is an
// explicit statement that the context is unused).
func contextParams(pkg *Package, fd *ast.FuncDecl) []*types.Var {
	var out []*types.Var
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		tv, ok := pkg.Info.Types[field.Type]
		if !ok || !isContextType(tv.Type) {
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
				out = append(out, v)
			}
		}
	}
	return out
}
