// Command docdrift is the CI gate that keeps docs/OPERATIONS.md — the
// operator's manual — in lockstep with the code it documents. It
// cross-checks three inventories against the manual:
//
//   - every command-line flag registered in cmd/*/main.go must appear
//     as `-name` in the manual;
//   - every metric family name (a double-quoted "liferaft_*" literal in
//     non-test Go source, i.e. a registration site) must appear
//     verbatim;
//   - every HTTP endpoint path registered on a mux in non-test Go
//     source must appear verbatim, or be covered by a documented
//     ancestor path (documenting /debug/pprof covers
//     /debug/pprof/cmdline and friends).
//
// Flags and metrics are also checked the other way: a flag row
// (| `-name` | ...) under a "### <binary> —" heading must name a flag
// cmd/<binary>/main.go registers — per binary, so a row one binary lost
// cannot pass on another binary's flag of the same name — and a metric
// row (| `liferaft_...` | ...) must name a registered family. Deleting a
// flag or a metric without its row breaks the build.
//
// It also keeps docs/ANALYZERS.md in lockstep with the static-analysis
// suite, in both directions: every analyzer lifevet registers (plus the
// stale-directive meta-check) must have a `## `name“
// section there, and every such section must name one of them, so adding
// an analyzer without documenting it, or cutting one and leaving its
// section behind, breaks the build.
//
// Any undocumented flag or metric fails the run with a list of the
// offenders and where they were registered, so adding a flag or a
// metric without documenting it breaks the build rather than silently
// aging the manual.
//
// Usage (from the repository root, as CI runs it):
//
//	go run ./cmd/docdrift
package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"

	"liferaft/internal/lifevet"
)

const (
	manualPath    = "docs/OPERATIONS.md"
	analyzersPath = "docs/ANALYZERS.md"
)

// flagRe matches a flag registration and captures the flag name: the
// first string literal on the line of flag.String("name", ...) or
// flag.StringVar(&target, "name", ...). Same-line only, so calls
// without a literal (flag.Parse) cannot swallow a string from a later
// line.
var flagRe = regexp.MustCompile(`flag\.\w+\([^"\n]*"([^"\n]+)"`)

// metricRe matches a double-quoted metric family name. Registration
// sites quote the full name; scrape assertions in tests and harnesses
// use backquoted series strings and are deliberately not matched.
var metricRe = regexp.MustCompile(`"(liferaft_[a-z0-9_]+)"`)

// endpointRe matches an HTTP route registration — mux.Handle("/path",
// ...) or mux.HandleFunc("/path", ...) — and captures the path.
var endpointRe = regexp.MustCompile(`\.Handle(?:Func)?\(\s*"(/[^"
]+)"`)

// sectionRe matches an analyzer section heading in the analyzer manual,
// "## `name` — ...", and captures the name.
var sectionRe = regexp.MustCompile("(?m)^## `([^`]+)`")

// binaryHeadingRe matches a binary's flag section in the manual,
// "### liferaftd — ...", and captures the binary's name.
var binaryHeadingRe = regexp.MustCompile(`^### (\S+) —`)

// flagRowRe and metricRowRe match a table row whose first cell names a
// flag or a metric family, and capture the name.
var (
	flagRowRe   = regexp.MustCompile("^\\|\\s*`-([A-Za-z0-9][\\w.-]*)`\\s*\\|")
	metricRowRe = regexp.MustCompile("^\\|\\s*`(liferaft_[a-z0-9_]+)`\\s*\\|")
)

// site records where an identifier was found, for the failure message.
type site struct{ file, name string }

// inventory is what the source tree registers.
type inventory struct {
	// flags holds every flag name once; byBinary[b] the names
	// cmd/b/main.go registers.
	flags     []site
	byBinary  map[string][]string
	metrics   []site
	endpoints []site
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "docdrift:", err)
		os.Exit(1)
	}
}

func run() error {
	manual, err := os.ReadFile(manualPath)
	if err != nil {
		return fmt.Errorf("reading the manual: %w (run from the repository root)", err)
	}
	analyzersDoc, err := os.ReadFile(analyzersPath)
	if err != nil {
		return fmt.Errorf("reading the analyzer manual: %w (run from the repository root)", err)
	}
	inv, err := collectInventory(".")
	if err != nil {
		return err
	}
	missing, checks := audit(inv, string(manual), string(analyzersDoc))
	if len(missing) > 0 {
		for _, line := range missing {
			fmt.Fprintln(os.Stderr, "docdrift:", line)
		}
		return fmt.Errorf("%d undocumented or stale name(s) — fix %s or %s", len(missing), manualPath, analyzersPath)
	}
	fmt.Printf("docdrift: %s covers all %d flags, %d metric families, %d endpoints, and names no other flag or metric; %s covers all %d analyzers\n",
		manualPath, len(inv.flags), len(inv.metrics), len(inv.endpoints), analyzersPath, checks)
	return nil
}

// collectInventory reads the flags, metric families and endpoints the
// source tree under root registers.
func collectInventory(root string) (inventory, error) {
	inv := inventory{byBinary: map[string][]string{}}
	cmd := filepath.Join(root, "cmd")
	seen := map[string]bool{}
	err := eachFile([]string{cmd}, func(path string) bool {
		// Skip this tool's own source: its regex literals would match.
		return filepath.Base(path) == "main.go" &&
			filepath.Base(filepath.Dir(path)) != "docdrift"
	}, func(path, src string) {
		bin := filepath.Base(filepath.Dir(path))
		for _, m := range flagRe.FindAllStringSubmatch(src, -1) {
			inv.byBinary[bin] = append(inv.byBinary[bin], m[1])
			if !seen[m[1]] {
				seen[m[1]] = true
				inv.flags = append(inv.flags, site{file: path, name: m[1]})
			}
		}
	})
	if err != nil {
		return inv, err
	}
	tree := []string{cmd, filepath.Join(root, "internal")}
	if inv.metrics, err = collect(tree, func(path string) bool {
		return !strings.HasSuffix(path, "_test.go")
	}, metricRe); err != nil {
		return inv, err
	}
	if inv.endpoints, err = collect(tree, func(path string) bool {
		// Skip this tool's own source: the doc comment's example route
		// would match.
		return !strings.HasSuffix(path, "_test.go") &&
			filepath.Base(filepath.Dir(path)) != "docdrift"
	}, endpointRe); err != nil {
		return inv, err
	}
	if len(inv.flags) == 0 || len(inv.metrics) == 0 || len(inv.endpoints) == 0 {
		return inv, fmt.Errorf("inventory came up empty (flags=%d, metrics=%d, endpoints=%d): the extraction regexes no longer match the source tree",
			len(inv.flags), len(inv.metrics), len(inv.endpoints))
	}
	return inv, nil
}

// audit checks the manual and the analyzer manual against inv and the
// registered analyzers. It returns every problem, sorted, and the number
// of analyzer checks it looked for.
func audit(inv inventory, doc, analyzersDoc string) (missing []string, checks int) {
	for _, f := range inv.flags {
		// Flags are documented backticked with their dash: `-slo-p99`.
		if !strings.Contains(doc, "`-"+f.name+"`") {
			missing = append(missing, fmt.Sprintf("flag -%s (registered in %s) is not documented as `-%s`", f.name, f.file, f.name))
		}
	}
	for _, m := range inv.metrics {
		if !strings.Contains(doc, m.name) {
			missing = append(missing, fmt.Sprintf("metric %s (registered in %s) is not documented", m.name, m.file))
		}
	}
	for _, e := range inv.endpoints {
		name := strings.TrimSuffix(e.name, "/")
		covered := strings.Contains(doc, name)
		for _, a := range inv.endpoints {
			if covered {
				break
			}
			anc := strings.TrimSuffix(a.name, "/")
			if anc != name && strings.HasPrefix(name, anc+"/") && strings.Contains(doc, anc) {
				covered = true
			}
		}
		if !covered {
			missing = append(missing, fmt.Sprintf("endpoint %s (registered in %s) is not documented", e.name, e.file))
		}
	}

	missing = append(missing, staleRows(inv, doc)...)

	// Analyzer coverage: the registry in internal/lifevet is the ground
	// truth (imported directly, no regex), and every entry — plus the
	// stale-directive meta-check — needs its own section heading.
	names := []string{lifevet.StaleDirectiveCheck}
	for _, a := range lifevet.Analyzers() {
		names = append(names, a.Name)
	}
	for _, name := range names {
		if !strings.Contains(analyzersDoc, "## `"+name+"`") {
			missing = append(missing, fmt.Sprintf("analyzer %s (registered in internal/lifevet) has no \"## `%s`\" section in %s", name, name, analyzersPath))
		}
	}
	// And the reverse: a section for a check lifevet no longer registers
	// documents an invariant nothing enforces.
	for _, m := range sectionRe.FindAllStringSubmatch(analyzersDoc, -1) {
		if !slices.Contains(names, m[1]) {
			missing = append(missing, fmt.Sprintf("section \"## `%s`\" in %s names no registered analyzer or meta-check", m[1], analyzersPath))
		}
	}
	sort.Strings(missing)
	return missing, len(names)
}

// staleRows walks the manual's tables (fenced code blocks skipped) and
// reports every flag row that does not name a flag of the binary whose
// "### <binary> —" section it sits in, and every metric row that names
// no registered family.
func staleRows(inv inventory, doc string) []string {
	metrics := map[string]bool{}
	for _, m := range inv.metrics {
		metrics[m.name] = true
	}
	var stale []string
	binary, fenced := "", false
	for i, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
		}
		if fenced {
			continue
		}
		if strings.HasPrefix(line, "#") {
			binary = ""
			if m := binaryHeadingRe.FindStringSubmatch(line); m != nil {
				binary = m[1]
			}
			continue
		}
		at := fmt.Sprintf("%s:%d", manualPath, i+1)
		if m := flagRowRe.FindStringSubmatch(line); m != nil {
			switch {
			case binary == "":
				stale = append(stale, fmt.Sprintf("%s: flag row -%s sits under no \"### <binary> —\" heading", at, m[1]))
			case !slices.Contains(inv.byBinary[binary], m[1]):
				stale = append(stale, fmt.Sprintf("%s: flag row -%s names no flag cmd/%s/main.go registers", at, m[1], binary))
			}
		}
		if m := metricRowRe.FindStringSubmatch(line); m != nil && !metrics[m[1]] {
			stale = append(stale, fmt.Sprintf("%s: metric row %s names no family registered in non-test code", at, m[1]))
		}
	}
	return stale
}

// collect walks roots for files accepted by keep and returns every
// first-group match of re, deduplicated by name.
func collect(roots []string, keep func(string) bool, re *regexp.Regexp) ([]site, error) {
	seen := map[string]string{}
	err := eachFile(roots, keep, func(path, src string) {
		for _, m := range re.FindAllStringSubmatch(src, -1) {
			if _, dup := seen[m[1]]; !dup {
				seen[m[1]] = path
			}
		}
	})
	if err != nil {
		return nil, err
	}
	out := make([]site, 0, len(seen))
	for name, file := range seen {
		out = append(out, site{file: file, name: name})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

// eachFile calls fn with the path and contents of every .go file under
// roots that keep accepts.
func eachFile(roots []string, keep func(string) bool, fn func(path, src string)) error {
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || !keep(path) {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fn(path, string(src))
			return nil
		})
		if err != nil {
			return fmt.Errorf("walking %s: %w", root, err)
		}
	}
	return nil
}
