// Package lifevet is the project-invariant static-analysis suite: a
// dependency-free driver (stdlib go/parser + go/types over `go list
// -json` package graphs) with analyzers for the invariants no tier-1 test
// can force a violation of: duration overflow and dropped errors.
// Each is documented in docs/ANALYZERS.md, whose § Ledger also names the
// tests that own the rest; `cmd/lifevet` wires the suite into CI.
//
// Suppression is explicit and audited: a `//lifevet:allow <checks>`
// comment directive silences the named checks on its own line and the
// next (or, attached to a func declaration, the whole function), and a
// directive that suppresses nothing is itself a diagnostic — the
// allowlist can only shrink, never silently rot.
package lifevet

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding: an invariant violation at a position.
type Diagnostic struct {
	Check   string         `json:"check"`
	Pos     token.Position `json:"-"`
	File    string         `json:"file"`
	Line    int            `json:"line"`
	Col     int            `json:"col"`
	Message string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Analyzer is one named invariant check over a loaded module.
type Analyzer struct {
	// Name is the check identifier used in diagnostics and in
	// //lifevet:allow directives.
	Name string
	// Doc is the one-line invariant statement.
	Doc string
	// Run reports violations via the Reporter.
	Run func(*Module, *Reporter)
}

// Analyzers returns the full suite in documentation order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AnalyzerDurovf,
		AnalyzerErrdrop,
	}
}

// Reporter collects diagnostics for one analyzer run.
type Reporter struct {
	fset  *token.FileSet
	check string
	diags *[]Diagnostic
}

// Reportf records one diagnostic at pos.
func (r *Reporter) Reportf(pos token.Pos, format string, args ...any) {
	p := r.fset.Position(pos)
	*r.diags = append(*r.diags, Diagnostic{
		Check: r.check, Pos: p, File: p.Filename, Line: p.Line, Col: p.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// Result is the outcome of a Run: surviving diagnostics (suppressions
// applied, stale directives added) sorted by position.
type Result struct {
	Diagnostics []Diagnostic
	// Suppressed counts diagnostics silenced by allow directives.
	Suppressed int
}

// directivePrefix introduces an allow directive comment. The rest of
// the comment line is a comma- or space-separated list of check names;
// anything after " -- " is a free-form justification.
const directivePrefix = "lifevet:allow"

// StaleDirectiveCheck names the meta-check reporting allow directives
// that suppress nothing. It cannot itself be suppressed.
const StaleDirectiveCheck = "stale-directive"

// directive is one parsed //lifevet:allow comment.
type directive struct {
	pos    token.Position
	checks []string
	// startLine/endLine bound the lines the directive covers: its own
	// line and the next, or a whole function body when attached to a
	// func declaration.
	startLine, endLine int
	hits               map[string]int
}

// Run executes the analyzers over the module, applies allow directives,
// and reports stale ones.
func Run(m *Module, analyzers []*Analyzer) Result {
	known := make(map[string]bool, len(analyzers))
	var raw []Diagnostic
	for _, a := range analyzers {
		known[a.Name] = true
		a.Run(m, &Reporter{fset: m.Fset, check: a.Name, diags: &raw})
	}

	dirs, dirDiags := collectDirectives(m, known)
	var res Result
	for _, d := range raw {
		if suppress(dirs, d) {
			res.Suppressed++
			continue
		}
		res.Diagnostics = append(res.Diagnostics, d)
	}
	// A directive entry that silenced nothing is dead weight — either
	// the invariant violation it excused is gone (delete the directive)
	// or the directive never matched (fix it). Either way it fails the
	// run: a stale allowlist is how invariants rot.
	for _, dir := range dirs {
		for _, c := range dir.checks {
			if dir.hits[c] == 0 {
				res.Diagnostics = append(res.Diagnostics, Diagnostic{
					Check: StaleDirectiveCheck,
					File:  dir.pos.Filename, Line: dir.pos.Line, Col: dir.pos.Column,
					Message: fmt.Sprintf("directive allows %q but suppressed no %s diagnostic — remove or fix it", c, c),
				})
			}
		}
	}
	res.Diagnostics = append(res.Diagnostics, dirDiags...)
	sortDiagnostics(res.Diagnostics)
	return res
}

// sortDiagnostics orders diagnostics by position for deterministic
// output (and stable CI diffs).
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
}

// suppress finds the first applicable directive for d and counts the
// hit. The stale-directive meta-check is never suppressible.
func suppress(dirs []*directive, d Diagnostic) bool {
	if d.Check == StaleDirectiveCheck {
		return false
	}
	for _, dir := range dirs {
		if dir.pos.Filename != d.File || d.Line < dir.startLine || d.Line > dir.endLine {
			continue
		}
		for _, c := range dir.checks {
			if c == d.Check {
				dir.hits[c]++
				return true
			}
		}
	}
	return false
}

// collectDirectives parses every //lifevet:allow comment in the module,
// reporting malformed ones (unknown check names, empty lists) as
// diagnostics rather than silently ignoring them.
func collectDirectives(m *Module, known map[string]bool) ([]*directive, []Diagnostic) {
	var dirs []*directive
	var diags []Diagnostic
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			// Map func declarations to their line ranges so a directive in
			// a doc comment (or on the func line) covers the whole body.
			type funcRange struct{ doc, start, end int }
			var funcs []funcRange
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fr := funcRange{
					start: m.Fset.Position(fd.Pos()).Line,
					end:   m.Fset.Position(fd.End()).Line,
				}
				fr.doc = fr.start
				if fd.Doc != nil {
					fr.doc = m.Fset.Position(fd.Doc.Pos()).Line
				}
				funcs = append(funcs, fr)
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					text = strings.TrimSpace(text)
					if !strings.HasPrefix(text, directivePrefix) {
						continue
					}
					pos := m.Fset.Position(c.Pos())
					rest := strings.TrimPrefix(text, directivePrefix)
					if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
						continue // e.g. lifevet:allowance — not this directive
					}
					// Strip the optional " -- why" justification tail.
					if i := strings.Index(rest, "--"); i >= 0 {
						rest = rest[:i]
					}
					var checks []string
					for _, tok := range strings.FieldsFunc(rest, func(r rune) bool {
						return r == ',' || r == ' ' || r == '\t'
					}) {
						checks = append(checks, tok)
					}
					if len(checks) == 0 {
						diags = append(diags, Diagnostic{
							Check: StaleDirectiveCheck,
							File:  pos.Filename, Line: pos.Line, Col: pos.Column,
							Message: "directive names no checks (want //lifevet:allow <check>[,<check>...])",
						})
						continue
					}
					bad := false
					for _, c := range checks {
						if !known[c] {
							diags = append(diags, Diagnostic{
								Check: StaleDirectiveCheck,
								File:  pos.Filename, Line: pos.Line, Col: pos.Column,
								Message: fmt.Sprintf("directive names unknown check %q", c),
							})
							bad = true
						}
					}
					if bad {
						continue
					}
					d := &directive{
						pos: pos, checks: checks,
						startLine: pos.Line, endLine: pos.Line + 1,
						hits: make(map[string]int),
					}
					for _, fr := range funcs {
						if pos.Line >= fr.doc && pos.Line <= fr.start {
							d.startLine, d.endLine = fr.start, fr.end
							break
						}
					}
					dirs = append(dirs, d)
				}
			}
		}
	}
	return dirs, diags
}
