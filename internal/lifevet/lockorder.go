package lifevet

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// AnalyzerLockOrder proves the module's mutexes are acquired in one
// consistent global order. It names every mutex by its global lock
// class (the Type.field it lives in — see lockClassOf), walks each
// function flow-sensitively to find acquisitions performed while
// another class is held (directly, or through any statically resolved
// call via the transitive may-acquire summary), and assembles the edges
// into one module-wide order graph. A cycle in that graph — scheduler
// lock taken under the cache lock on one path, cache lock taken under
// the scheduler lock on another — is a potential deadlock the
// moment both paths run concurrently, and is reported on every edge
// that participates.
//
// Boundaries: lock identity is per *class*, not per instance, so
// hand-over-hand acquisition of two instances of the same class (parent
// and child of the same type) is not an edge; function literals are
// excluded (a closure usually runs on another goroutine, after the
// enclosing locks are gone); interface calls have no static callee and
// contribute no edges.
var AnalyzerLockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "mutex acquisition order must be acyclic module-wide (cycles are potential deadlocks)",
	Run:  runLockOrder,
}

// lockEdge is one observed "B acquired while A held" fact.
type lockEdge struct {
	from, to string
	pos      token.Pos
	fn       string // function where the edge was observed
	via      string // callee chain when the acquisition is transitive
}

func runLockOrder(m *Module, r *Reporter) {
	ix := buildFuncIndex(m)
	sum := buildLockSummary(ix)

	var edges []lockEdge
	seen := make(map[string]bool)
	addEdge := func(e lockEdge) {
		if e.from == e.to {
			return // same class: instance-level, not an order violation
		}
		key := e.from + "\x00" + e.to
		if seen[key] {
			return
		}
		seen[key] = true
		edges = append(edges, e)
	}

	for fn, d := range ix.decls {
		w := &orderWalker{d: d, sum: sum, fnName: funcDisplay(fn), add: addEdge}
		hw := heldWalker{scan: w.scan}
		hw.walkStmts(d.decl.Body.List, map[string]token.Pos{})
	}

	// Order graph over classes; report every edge inside a cycle.
	succ := make(map[string][]string)
	for _, e := range edges {
		succ[e.from] = append(succ[e.from], e.to)
	}
	reaches := func(from, to string) bool {
		visited := map[string]bool{}
		stack := []string{from}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if n == to {
				return true
			}
			if visited[n] {
				continue
			}
			visited[n] = true
			stack = append(stack, succ[n]...)
		}
		return false
	}

	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})
	for _, e := range edges {
		if !reaches(e.to, e.from) {
			continue
		}
		via := ""
		if e.via != "" {
			via = fmt.Sprintf(" (through %s)", e.via)
		}
		cycle := cyclePath(succ, e.to, e.from)
		r.Reportf(e.pos, "lock order cycle: %s acquired%s while holding %s in %s, but %s is reachable while holding %s (cycle: %s); two goroutines taking these paths concurrently deadlock",
			e.to, via, e.from, e.fn, e.from, e.to, strings.Join(cycle, " -> "))
	}
}

// cyclePath renders one from->...->to path plus the closing edge, for
// the diagnostic.
func cyclePath(succ map[string][]string, from, to string) []string {
	type node struct {
		name string
		path []string
	}
	visited := map[string]bool{from: true}
	queue := []node{{from, []string{to, from}}}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n.name == to {
			return n.path
		}
		next := append([]string(nil), succ[n.name]...)
		sort.Strings(next)
		for _, s := range next {
			if visited[s] {
				continue
			}
			visited[s] = true
			queue = append(queue, node{s, append(append([]string(nil), n.path...), s)})
		}
	}
	return []string{to, from, to}
}

// orderWalker is lockorder's view of one function: which order edges a
// node contributes when a heldWalker reaches it with lock classes held.
type orderWalker struct {
	d      *funcDecl
	sum    *lockSummary
	fnName string
	add    func(lockEdge)
}

// scan inspects an expression or simple statement: mutex calls update
// the held-set and record edges; other calls contribute their summary's
// acquire set as edges.
func (w *orderWalker) scan(n ast.Node, held map[string]token.Pos, _ bool) {
	info := w.d.pkg.Info
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if path, method := mutexMethod(info, call); path != "" {
			sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			class := lockClassOf(w.d.pkg, sel.X)
			switch method {
			case "Lock", "RLock", "TryLock", "TryRLock":
				if class != "" {
					for from := range held {
						w.add(lockEdge{from: from, to: class, pos: call.Pos(), fn: w.fnName})
					}
					held[class] = call.Pos()
				}
			case "Unlock", "RUnlock":
				if class != "" {
					delete(held, class)
				}
			}
			return true
		}
		if len(held) == 0 {
			return true
		}
		callee := origin(staticCallee(info, call))
		if callee == nil {
			return true
		}
		for class, acq := range w.sum.acquires[callee] {
			via := funcDisplay(callee)
			if acq.via != "" {
				via += " -> " + acq.via
			}
			for from := range held {
				// A callee re-acquiring the class the caller already holds
				// is a recursive-lock hazard, but instance identity is
				// unknown; only cross-class edges enter the order graph.
				w.add(lockEdge{from: from, to: class, pos: call.Pos(), fn: w.fnName, via: via})
			}
		}
		return true
	})
}
