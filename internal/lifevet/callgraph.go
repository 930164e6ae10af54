package lifevet

import (
	"go/ast"
	"go/types"
	"strings"
)

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
