// Command docdrift is the CI gate that keeps docs/OPERATIONS.md — the
// operator's manual — in lockstep with the code it documents. It
// cross-checks two inventories against the manual:
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
// It also keeps docs/ANALYZERS.md in lockstep with the static-analysis
// suite, in both directions: every analyzer lifevet registers (plus the
// stale-directive and stale-baseline meta-checks) must have a `## `name“
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

// site records where an identifier was found, for the failure message.
type site struct{ file, name string }

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
	doc := string(manual)

	flags, err := collect("cmd", func(path string) bool {
		// Skip this tool's own source: its regex literals would match.
		return filepath.Base(path) == "main.go" &&
			filepath.Base(filepath.Dir(path)) != "docdrift"
	}, flagRe)
	if err != nil {
		return err
	}
	metrics, err := collectAll([]string{"cmd", "internal"}, func(path string) bool {
		return !strings.HasSuffix(path, "_test.go")
	}, metricRe)
	if err != nil {
		return err
	}
	endpoints, err := collectAll([]string{"cmd", "internal"}, func(path string) bool {
		// Skip this tool's own source: the doc comment's example route
		// would match.
		return !strings.HasSuffix(path, "_test.go") &&
			filepath.Base(filepath.Dir(path)) != "docdrift"
	}, endpointRe)
	if err != nil {
		return err
	}
	if len(flags) == 0 || len(metrics) == 0 || len(endpoints) == 0 {
		return fmt.Errorf("inventory came up empty (flags=%d, metrics=%d, endpoints=%d): the extraction regexes no longer match the source tree",
			len(flags), len(metrics), len(endpoints))
	}

	var missing []string
	for _, f := range flags {
		// Flags are documented backticked with their dash: `-rate-mode`.
		if !strings.Contains(doc, "`-"+f.name+"`") {
			missing = append(missing, fmt.Sprintf("flag -%s (registered in %s) is not documented as `-%s`", f.name, f.file, f.name))
		}
	}
	for _, m := range metrics {
		if !strings.Contains(doc, m.name) {
			missing = append(missing, fmt.Sprintf("metric %s (registered in %s) is not documented", m.name, m.file))
		}
	}
	for _, e := range endpoints {
		name := strings.TrimSuffix(e.name, "/")
		covered := strings.Contains(doc, name)
		for _, a := range endpoints {
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

	// Analyzer coverage: the registry in internal/lifevet is the ground
	// truth (imported directly, no regex), and every entry — plus the
	// stale-directive meta-check — needs its own section heading.
	analyzersDoc, err := os.ReadFile(analyzersPath)
	if err != nil {
		return fmt.Errorf("reading the analyzer manual: %w (run from the repository root)", err)
	}
	checks := []string{lifevet.StaleDirectiveCheck, lifevet.StaleBaselineCheck}
	for _, a := range lifevet.Analyzers() {
		checks = append(checks, a.Name)
	}
	for _, name := range checks {
		if !strings.Contains(string(analyzersDoc), "## `"+name+"`") {
			missing = append(missing, fmt.Sprintf("analyzer %s (registered in internal/lifevet) has no \"## `%s`\" section in %s", name, name, analyzersPath))
		}
	}
	// And the reverse: a section for a check lifevet no longer registers
	// documents an invariant nothing enforces.
	for _, m := range sectionRe.FindAllStringSubmatch(string(analyzersDoc), -1) {
		if !slices.Contains(checks, m[1]) {
			missing = append(missing, fmt.Sprintf("section \"## `%s`\" in %s names no registered analyzer or meta-check", m[1], analyzersPath))
		}
	}

	if len(missing) > 0 {
		sort.Strings(missing)
		for _, line := range missing {
			fmt.Fprintln(os.Stderr, "docdrift:", line)
		}
		return fmt.Errorf("%d undocumented or stale name(s) — fix %s or %s", len(missing), manualPath, analyzersPath)
	}
	fmt.Printf("docdrift: %s covers all %d flags, %d metric families, %d endpoints; %s covers all %d analyzers\n",
		manualPath, len(flags), len(metrics), len(endpoints), analyzersPath, len(checks))
	return nil
}

// collect walks one root for files accepted by keep and returns every
// first-group match of re, deduplicated by name.
func collect(root string, keep func(string) bool, re *regexp.Regexp) ([]site, error) {
	return collectAll([]string{root}, keep, re)
}

func collectAll(roots []string, keep func(string) bool, re *regexp.Regexp) ([]site, error) {
	seen := map[string]string{}
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
			for _, m := range re.FindAllStringSubmatch(string(src), -1) {
				if _, dup := seen[m[1]]; !dup {
					seen[m[1]] = path
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("walking %s: %w", root, err)
		}
	}
	out := make([]site, 0, len(seen))
	for name, file := range seen {
		out = append(out, site{file: file, name: name})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}
