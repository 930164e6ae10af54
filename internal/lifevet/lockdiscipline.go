package lifevet

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// AnalyzerLockDiscipline flags blocking operations — channel traffic,
// network or disk I/O, sleeps — performed while holding a sync.Mutex or
// sync.RWMutex acquired in the same function. A lock that serializes
// hot-path readers must bound its hold time by memory operations; one
// fsync under a cache mutex and every concurrent Get stalls behind the
// disk. Sites that are deliberately synchronous (crash-safety writes
// that must be ordered with the map update) carry a
// //lifevet:allow lockdiscipline directive recording the decision.
//
// The check is per-function: it tracks mu.Lock()/mu.Unlock() pairs by
// receiver path, treats `defer mu.Unlock()` as held-to-end, and
// consults a transitive I/O summary of the module call graph so a
// helper that hides the write (a persistLocked calling os.WriteFile)
// still flags its locked caller. Non-blocking channel ops (select with
// a default clause) are exempt, as are operations inside function
// literals (they run in their own context, usually after the lock is
// gone).
var AnalyzerLockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "no channel, network, or disk I/O while holding a mutex acquired in the same function",
	Run:  runLockDiscipline,
}

// osBlockingFuncs are os-package entry points that hit the filesystem.
var osBlockingFuncs = map[string]bool{
	"ReadFile": true, "WriteFile": true, "Rename": true,
	"Remove": true, "RemoveAll": true, "Open": true, "OpenFile": true,
	"Create": true, "CreateTemp": true, "MkdirAll": true, "Mkdir": true,
	"ReadDir": true, "Stat": true, "Truncate": true,
}

// osFileBlockingMethods are (*os.File) methods that hit the filesystem.
// Close is deliberately absent: closing a descriptor under a lock is
// cheap, and flagging it would make fd hygiene fight lock hygiene.
var osFileBlockingMethods = map[string]bool{
	"Read": true, "ReadAt": true, "Write": true, "WriteAt": true,
	"Sync": true, "Seek": true,
}

// ioOp describes why an operation counts as blocking, for diagnostics.
type ioOp struct {
	pos  token.Pos
	desc string
}

// directCallIO classifies a call as a direct blocking operation.
func directCallIO(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := staticCallee(info, call)
	if fn == nil {
		return "", false
	}
	switch {
	case isPkgFunc(fn, "time", "Sleep"):
		return "time.Sleep", true
	case isPkgFunc(fn, "os") && osBlockingFuncs[fn.Name()]:
		return "os." + fn.Name(), true
	case isOSFileMethod(fn) && osFileBlockingMethods[fn.Name()]:
		return "(*os.File)." + fn.Name(), true
	case fn.Pkg() != nil && fn.Pkg().Path() == "net":
		return "net." + fn.Name(), true
	}
	return "", false
}

func isOSFileMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "os" && named.Obj().Name() == "File"
}

// selectHasDefault reports whether a select statement has a default
// clause, making its channel operations non-blocking.
func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// directIOOps scans one function body for operations that block
// directly (not through calls).
func directIOOps(d *funcDecl) []ioOp {
	info := d.pkg.Info
	var ops []ioOp
	var visit func(n ast.Node, nonBlocking bool)
	visit = func(n ast.Node, nonBlocking bool) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.SelectStmt:
				hasDefault := selectHasDefault(m)
				if !hasDefault {
					ops = append(ops, ioOp{m.Pos(), "blocking select"})
				}
				for _, c := range m.Body.List {
					cc, ok := c.(*ast.CommClause)
					if !ok {
						continue
					}
					visit(cc.Comm, hasDefault)
					for _, s := range cc.Body {
						visit(s, false)
					}
				}
				return false
			case *ast.SendStmt:
				if !nonBlocking {
					ops = append(ops, ioOp{m.Pos(), "channel send"})
				}
			case *ast.UnaryExpr:
				if m.Op == token.ARROW && !nonBlocking {
					ops = append(ops, ioOp{m.Pos(), "channel receive"})
				}
			case *ast.CallExpr:
				if desc, ok := directCallIO(info, m); ok {
					ops = append(ops, ioOp{m.Pos(), desc})
				}
			}
			return true
		})
	}
	visit(d.decl.Body, false)
	return ops
}

// ioSummary records, for every module function that blocks (directly
// or through static calls), a sample operation for diagnostics. Note
// internal/disk is a virtual-time cost model (accounting only, no real
// I/O), so it contributes nothing here; the module's real disk I/O is
// the os package traffic in internal/segment and the disk cache tier.
type ioSummary struct {
	does map[*types.Func]ioOp
}

func buildIOSummary(ix *funcIndex) *ioSummary {
	s := &ioSummary{does: make(map[*types.Func]ioOp)}
	for fn, d := range ix.decls {
		if ops := directIOOps(d); len(ops) > 0 {
			s.does[fn] = ops[0]
		}
	}
	// Propagate caller<-callee to a fixpoint (the graph is small).
	for changed := true; changed; {
		changed = false
		for fn, d := range ix.decls {
			if _, done := s.does[fn]; done {
				continue
			}
			ast.Inspect(d.decl.Body, func(n ast.Node) bool {
				if _, done := s.does[fn]; done {
					return false
				}
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := origin(staticCallee(d.pkg.Info, call))
				if callee == nil {
					return true
				}
				if op, ok := s.does[callee]; ok {
					s.does[fn] = ioOp{call.Pos(), op.desc + " (via " + funcDisplay(callee) + ")"}
					changed = true
					return false
				}
				return true
			})
		}
	}
	return s
}

// mutexMethod classifies a call as Lock/RLock/Unlock/RUnlock on a
// sync.Mutex or sync.RWMutex receiver, returning the receiver path.
func mutexMethod(info *types.Info, call *ast.CallExpr) (path, method string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
	default:
		return "", ""
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return "", ""
	}
	t := tv.Type
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return "", ""
	}
	if name := named.Obj().Name(); name != "Mutex" && name != "RWMutex" {
		return "", ""
	}
	p := exprPath(sel.X)
	if p == "" {
		return "", ""
	}
	return p, sel.Sel.Name
}

func runLockDiscipline(m *Module, r *Reporter) {
	ix := buildFuncIndex(m)
	io := buildIOSummary(ix)
	for _, d := range ix.decls {
		w := &lockWalker{d: d, io: io, r: r, du: buildDefUse(d.pkg, d.decl.Body)}
		hw := heldWalker{scan: w.scan, onBlockingSelect: func(s *ast.SelectStmt, held map[string]token.Pos) {
			if len(held) > 0 {
				w.report(s.Pos(), "blocking select", held)
			}
		}}
		hw.walkStmts(d.decl.Body.List, map[string]token.Pos{})
	}
}

// freshChanSend reports whether a send provably cannot block: the
// channel resolves (through the def-use core) to a `make(chan T, n)`
// with constant n >= 1 created in this function, at most n sends on
// that variable appear lexically at or before this one, and the
// channel has not been passed to another function as a call argument
// before this send (a second sender elsewhere could fill the buffer).
// Sends and escapes lexically after this send cannot have filled the
// buffer yet — a result channel handed to a merge goroutine launched
// later is still fresh here. Returning the channel is fine — callers
// receive.
func (w *lockWalker) freshChanSend(send *ast.SendStmt) bool {
	capN, ok := w.du.freshChanCap(send.Chan)
	if !ok {
		return false
	}
	v := w.du.singleVar(send.Chan)
	if v == nil {
		return false
	}
	sends := int64(0)
	passed := false
	ast.Inspect(w.d.decl.Body, func(n ast.Node) bool {
		if n != nil && n.Pos() > send.Pos() {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			if w.du.singleVar(n.Chan) == v {
				sends++
			}
		case *ast.CallExpr:
			for _, arg := range n.Args {
				if w.du.singleVar(arg) == v {
					passed = true
				}
			}
		}
		return true
	})
	return sends <= capN && !passed
}

// lockWalker is lockdiscipline's view of one function: what counts as
// blocking at a node a heldWalker reaches with mutexes held.
type lockWalker struct {
	d  *funcDecl
	io *ioSummary
	r  *Reporter
	du *defUse
}

// scan inspects an expression or simple statement: mutex calls update
// held, blocking operations are reported when held is non-empty.
func (w *lockWalker) scan(n ast.Node, held map[string]token.Pos, nonBlocking bool) {
	info := w.d.pkg.Info
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if path, method := mutexMethod(info, m); path != "" {
				switch method {
				case "Lock", "RLock", "TryLock", "TryRLock":
					held[path] = m.Pos()
				case "Unlock", "RUnlock":
					delete(held, path)
				}
				return true
			}
			if len(held) == 0 {
				return true
			}
			if desc, ok := directCallIO(info, m); ok {
				w.report(m.Pos(), desc, held)
				return true
			}
			fn := origin(staticCallee(info, m))
			if fn == nil {
				return true
			}
			if op, ok := w.io.does[fn]; ok {
				w.report(m.Pos(), op.desc+" via "+funcDisplay(fn), held)
			}
		case *ast.SendStmt:
			if !nonBlocking && len(held) > 0 && !w.freshChanSend(m) {
				w.report(m.Pos(), "channel send", held)
			}
		case *ast.UnaryExpr:
			if m.Op == token.ARROW && !nonBlocking && len(held) > 0 {
				w.report(m.Pos(), "channel receive", held)
			}
		}
		return true
	})
}

func (w *lockWalker) report(pos token.Pos, op string, held map[string]token.Pos) {
	paths := make([]string, 0, len(held))
	for p := range held {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	w.r.Reportf(pos, "%s while holding %s (locked in %s); blocking under a mutex turns every contending goroutine's lock wait into an I/O wait", op, paths[0], funcDisplay(w.d.fn))
}
