package lifevet

import (
	"go/ast"
	"go/types"
	"strings"
)

// funcIndex maps every function and method declared in the module to
// its body, and resolves static call sites — the machinery under
// lockdiscipline's transitive blocking summary. Interface-method calls
// have no static callee and resolve to nil; the analyzers document that
// boundary.
type funcIndex struct {
	mod   *Module
	decls map[*types.Func]*funcDecl
}

// funcDecl is one declared function with the package it lives in.
type funcDecl struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package
}

// buildFuncIndex indexes every function declaration in the module.
func buildFuncIndex(m *Module) *funcIndex {
	ix := &funcIndex{mod: m, decls: make(map[*types.Func]*funcDecl)}
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				ix.decls[obj] = &funcDecl{fn: obj, decl: fd, pkg: pkg}
			}
		}
	}
	return ix
}

// staticCallee resolves a call expression to the *types.Func it
// statically invokes: package-level functions, methods on concrete
// receiver types, and method expressions. Calls through interfaces,
// function values, and builtins return nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			// A method call whose receiver is an interface dispatches
			// dynamically: no static callee.
			if types.IsInterface(sel.Recv()) {
				return nil
			}
			return fn
		}
		// Qualified identifier: pkg.Func.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// origin returns the generic origin of fn so instantiations share one
// call-graph node.
func origin(fn *types.Func) *types.Func {
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

// funcDisplay renders a function for diagnostics: pkg.Func or
// pkg.(*Recv).Method, with the package shortened to its import-path
// tail.
func funcDisplay(fn *types.Func) string {
	pkg := ""
	if p := fn.Pkg(); p != nil {
		pkg = p.Path()
		if i := strings.LastIndex(pkg, "/"); i >= 0 {
			pkg = pkg[i+1:]
		}
		pkg += "."
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		recv := sig.Recv().Type()
		name := ""
		if ptr, ok := recv.(*types.Pointer); ok {
			name = "(*" + namedName(ptr.Elem()) + ")"
		} else {
			name = namedName(recv)
		}
		return pkg + name + "." + fn.Name()
	}
	return pkg + fn.Name()
}

func namedName(t types.Type) string {
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// isPkgFunc reports whether fn is a package-level function (or method)
// of the package with exactly the given import path, with one of the
// given names. An empty name list matches any name.
func isPkgFunc(fn *types.Func, pkgPath string, names ...string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	if len(names) == 0 {
		return true
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// exprPath renders a pure identifier/field-select chain ("s.obs",
// "t.mu") as a stable string, or "" when the expression is anything
// more dynamic (calls, indexes, dereferences).
func exprPath(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprPath(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	}
	return ""
}
