package lifevet

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerDurovf hunts the PR 4 bug class: duration and integer
// arithmetic that can silently overflow or truncate. time.Duration is
// int64 nanoseconds — ~292 years — which feels unoverflowable until a
// caller-controlled count is scaled up (`time.Duration(millis) *
// time.Millisecond` flips negative past ~2.9 million years of millis,
// which is exactly nine digits more than a JSON client can type), or a
// float seconds value is converted after a division by a tiny rate.
// Three patterns are flagged, module-wide:
//
//   - scale-up multiplication: `time.Duration(x) * unit` (either
//     operand order) where x is not a constant — the conversion launders
//     an unbounded integer into a Duration and the multiply overflows
//     silently. Compare and clamp in the scalar domain first. x of the
//     form `expr % const` or `expr & const` is provably bounded and
//     exempt.
//   - float conversion of a product: `time.Duration(f)` where f is a
//     non-constant floating multiplication or division — the classic
//     `seconds * float64(time.Second)` idiom; values past 2^63 convert
//     to an implementation-defined garbage int64. Clamp the float
//     first (the tokenBucket.wait pattern).
//   - narrowing conversion of arithmetic: `int32(e)`/`uint32(e)`/...
//     where e is a non-constant arithmetic expression (+ - * << /) of a
//     strictly wider integer type — the truncation keeps the low bits
//     and drops the sign. Converting a plain variable or len() is not
//     flagged (bounds are usually structural); arithmetic is where
//     silent wraparound hides.
//
// The check is flow-sensitive about the fix idiom: a value that is
// clamped before the conversion is exempt. Two clamp shapes are
// recognized, both scanning the enclosing function body for a
// dominating if-statement over the same variable:
//
//   - saturating assign: `if x > max { x = max }` before
//     `time.Duration(x) * unit` — the post-PR-4 gateway shape.
//   - guard return: `if !(sec < max) { return ... }` before
//     `time.Duration(sec * float64(time.Second))` — the
//     tokenBucket.wait shape.
//
// Sites that are provably bounded by construction (trace generators,
// paper-figure math over fixed inputs, heap and slot indices) carry a
// //lifevet:allow durovf directive saying what bounds them.
var AnalyzerDurovf = &Analyzer{
	Name: "durovf",
	Doc:  "duration/integer arithmetic must not silently overflow or truncate",
	Run:  runDurovf,
}

func runDurovf(m *Module, r *Reporter) {
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			// Walk per function so each check can consult the enclosing
			// body for dominating clamps.
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				durovfBody(pkg, fd.Body, r)
			}
		}
	}
}

// durovfBody runs the three overflow checks over one function body.
// FuncLit bodies are checked against the literal's own body (a clamp
// in the enclosing function does not dominate the literal's later
// executions).
func durovfBody(pkg *Package, body *ast.BlockStmt, r *Reporter) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n.Body != body {
				durovfBody(pkg, n.Body, r)
				return false
			}
		case *ast.BinaryExpr:
			checkDurationMul(pkg, body, n, r)
		case *ast.CallExpr:
			checkDurationFloatConv(pkg, body, n, r)
			checkNarrowingConv(pkg, n, r)
		}
		return true
	})
}

// isDurationType reports whether t is time.Duration.
func isDurationType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "time" && named.Obj().Name() == "Duration"
}

// isConst reports whether e has a compile-time constant value.
func isConst(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	return ok && tv.Value != nil
}

// durationConvOperand matches `time.Duration(x)` and returns x.
func durationConvOperand(pkg *Package, e ast.Expr) (ast.Expr, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil, false
	}
	tv, ok := pkg.Info.Types[call.Fun]
	if !ok || !tv.IsType() || !isDurationType(tv.Type) {
		return nil, false
	}
	return call.Args[0], true
}

// boundedByMask reports expressions of the form `x % c` or `x & c`
// (constant c): their value is provably bounded, so scaling them up
// cannot overflow for any sane unit.
func boundedByMask(pkg *Package, e ast.Expr) bool {
	be, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	if be.Op != token.REM && be.Op != token.AND {
		return false
	}
	return isConst(pkg, be.Y)
}

// clampVars returns the variables whose clamping would bound e: e
// itself when it is a plain variable, or every variable operand of a
// one-level arithmetic expression (`sec * float64(time.Second)` is
// bounded when `sec` is).
func clampVars(pkg *Package, e ast.Expr) []*types.Var {
	e = ast.Unparen(e)
	if be, ok := e.(*ast.BinaryExpr); ok {
		return append(clampVars(pkg, be.X), clampVars(pkg, be.Y)...)
	}
	if id, ok := e.(*ast.Ident); ok {
		if v, ok := pkg.Info.Uses[id].(*types.Var); ok {
			return []*types.Var{v}
		}
	}
	return nil
}

// clampedBefore reports whether variable v is clamped by an
// if-statement lexically before pos in body: a condition comparing v
// (with < <= > >=, possibly under !) whose body either assigns v (the
// saturating-assign shape) or returns (the guard-return shape). The
// lexical-order test is a pragmatic stand-in for dominance; the clamp
// idioms this is built for put the guard immediately above the
// conversion.
func clampedBefore(pkg *Package, body *ast.BlockStmt, v *types.Var, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found || n == nil || n.Pos() >= pos {
			return !found
		}
		ifs, ok := n.(*ast.IfStmt)
		if !ok || !condCompares(pkg, ifs.Cond, v) {
			return true
		}
		for _, s := range ifs.Body.List {
			switch s := s.(type) {
			case *ast.ReturnStmt:
				found = true
			case *ast.AssignStmt:
				for _, lhs := range s.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						if pkg.Info.Uses[id] == v || pkg.Info.Defs[id] == v {
							found = true
						}
					}
				}
			}
		}
		return !found
	})
	return found
}

// condCompares reports whether cond contains an ordering comparison
// (< <= > >=) with v as an operand, looking through ! and && / ||.
func condCompares(pkg *Package, cond ast.Expr, v *types.Var) bool {
	switch e := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		return e.Op == token.NOT && condCompares(pkg, e.X, v)
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND, token.LOR:
			return condCompares(pkg, e.X, v) || condCompares(pkg, e.Y, v)
		case token.LSS, token.LEQ, token.GTR, token.GEQ:
			for _, side := range []ast.Expr{e.X, e.Y} {
				if id, ok := ast.Unparen(side).(*ast.Ident); ok && pkg.Info.Uses[id] == v {
					return true
				}
			}
		}
	}
	return false
}

// clamped reports whether every clamp-relevant variable feeding e is
// bounded by a dominating clamp; expressions with no variable operands
// are not clamped (they carry their own arithmetic).
func clamped(pkg *Package, body *ast.BlockStmt, e ast.Expr, pos token.Pos) bool {
	vars := clampVars(pkg, e)
	if len(vars) == 0 {
		return false
	}
	for _, v := range vars {
		if clampedBefore(pkg, body, v, pos) {
			return true
		}
	}
	return false
}

// checkDurationMul flags `time.Duration(x) * y` scale-ups.
func checkDurationMul(pkg *Package, body *ast.BlockStmt, be *ast.BinaryExpr, r *Reporter) {
	if be.Op != token.MUL {
		return
	}
	tv, ok := pkg.Info.Types[be]
	if !ok || !isDurationType(tv.Type) || tv.Value != nil {
		return
	}
	for _, side := range []ast.Expr{be.X, be.Y} {
		x, isConv := durationConvOperand(pkg, side)
		if !isConv || isConst(pkg, x) || boundedByMask(pkg, x) {
			continue
		}
		if clamped(pkg, body, x, be.Pos()) {
			continue
		}
		r.Reportf(be.Pos(), "time.Duration(...) * unit can overflow int64 nanoseconds when the converted value is unbounded; compare and clamp in the scalar domain before converting (the Retry-After overflow bug class)")
		return
	}
}

// checkDurationFloatConv flags `time.Duration(f)` where f is float
// arithmetic.
func checkDurationFloatConv(pkg *Package, body *ast.BlockStmt, call *ast.CallExpr, r *Reporter) {
	x, ok := durationConvOperand(pkg, call)
	if !ok || isConst(pkg, x) {
		return
	}
	tv, ok := pkg.Info.Types[x]
	if !ok {
		return
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsFloat == 0 {
		return
	}
	be, ok := ast.Unparen(x).(*ast.BinaryExpr)
	if !ok || (be.Op != token.MUL && be.Op != token.QUO) {
		return
	}
	if clamped(pkg, body, x, call.Pos()) {
		return
	}
	r.Reportf(call.Pos(), "time.Duration of a float product/quotient: values past 2^63 ns convert to garbage (negative or clamped, platform-defined); bound the float before converting (clamp like tokenBucket.wait)")
}

// narrowTargets maps narrowing conversion targets to their bit width.
var narrowTargets = map[string]int{
	"int8": 8, "int16": 16, "int32": 32,
	"uint8": 8, "uint16": 16, "uint32": 32,
}

// widerSources have >= 64 value bits (int/uint are 64 on every
// platform this module targets; treating them as wide keeps the check
// portable-conservative).
var widerSources = map[string]bool{
	"int": true, "int64": true, "uint": true, "uint64": true, "uintptr": true,
}

// checkNarrowingConv flags `int32(e)` (and friends) where e is
// non-constant arithmetic of a wider integer type.
func checkNarrowingConv(pkg *Package, call *ast.CallExpr, r *Reporter) {
	if len(call.Args) != 1 {
		return
	}
	tvFun, ok := pkg.Info.Types[call.Fun]
	if !ok || !tvFun.IsType() {
		return
	}
	target, ok := tvFun.Type.Underlying().(*types.Basic)
	if !ok {
		return
	}
	bits, narrow := narrowTargets[target.Name()]
	if !narrow {
		return
	}
	x := ast.Unparen(call.Args[0])
	if isConst(pkg, x) {
		return
	}
	be, ok := x.(*ast.BinaryExpr)
	if !ok {
		return
	}
	switch be.Op {
	case token.ADD, token.SUB, token.MUL, token.SHL, token.QUO:
	default:
		return
	}
	if boundedByMask(pkg, x) {
		return
	}
	tv, ok := pkg.Info.Types[x]
	if !ok {
		return
	}
	src, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || src.Info()&types.IsInteger == 0 || !widerSources[src.Name()] {
		return
	}
	r.Reportf(call.Pos(), "%s(...) truncates a %s arithmetic result to %d bits, silently keeping the low bits; range-check the value (or mask explicitly) before narrowing", target.Name(), src.Name(), bits)
}
