package lifevet

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The golden-fixture harness copies testdata/<name> into a temp dir,
// stamps a go.mod onto it (module "fixture", so the analyzers'
// suffix-scoped package predicates fire for fixture/internal/...), runs
// the production loader and analyzer set, and matches the result
// bidirectionally against `// want <check> "substr"` comments: every
// diagnostic must be expected, and every expectation must be hit.

var wantRe = regexp.MustCompile(`// want ([a-z-]+)(?: "([^"]*)")?`)

type want struct {
	file   string
	line   int
	check  string
	substr string
}

func runFixture(t *testing.T, name string) (Result, string) {
	t.Helper()
	dir := t.TempDir()
	src := filepath.Join("testdata", name)
	err := filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, rerr := filepath.Rel(src, p)
		if rerr != nil {
			return rerr
		}
		dst := filepath.Join(dir, rel)
		if d.IsDir() {
			return os.MkdirAll(dst, 0o755)
		}
		data, rerr := os.ReadFile(p)
		if rerr != nil {
			return rerr
		}
		return os.WriteFile(dst, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copy fixture %s: %v", name, err)
	}
	mod := []byte("module fixture\n\ngo 1.24\n")
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), mod, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Load(dir, "./...")
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	return Run(m, Analyzers()), dir
}

func collectWants(t *testing.T, dir string) []want {
	t.Helper()
	var wants []want
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(p) != ".go" {
			return err
		}
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
				wants = append(wants, want{file: p, line: line, check: m[1], substr: m[2]})
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatalf("collect wants: %v", err)
	}
	return wants
}

// checkFixture asserts the diagnostic set matches the want-comments
// exactly and returns the Result for extra assertions (Suppressed).
func checkFixture(t *testing.T, name string) Result {
	t.Helper()
	res, dir := runFixture(t, name)
	wants := collectWants(t, dir)
	used := make([]bool, len(wants))
	for _, d := range res.Diagnostics {
		matched := false
		for i, w := range wants {
			if !used[i] && w.file == d.File && w.line == d.Line && w.check == d.Check &&
				(w.substr == "" || containsSubstr(d.Message, w.substr)) {
				used[i] = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic %s:%d [%s] %s", relTo(dir, d.File), d.Line, d.Check, d.Message)
		}
	}
	for i, w := range wants {
		if !used[i] {
			t.Errorf("missing diagnostic: want %s at %s:%d (substr %q)", w.check, relTo(dir, w.file), w.line, w.substr)
		}
	}
	return res
}

func containsSubstr(msg, substr string) bool {
	return substr == "" || regexp.MustCompile(regexp.QuoteMeta(substr)).MatchString(msg)
}

func relTo(dir, p string) string {
	if rel, err := filepath.Rel(dir, p); err == nil {
		return rel
	}
	return p
}

func assertSuppressed(t *testing.T, res Result, n int) {
	t.Helper()
	if res.Suppressed != n {
		t.Errorf("suppressed = %d, want %d", res.Suppressed, n)
	}
}

func TestDirectivesFixture(t *testing.T) {
	// One line directive carrying two checks suppresses both; a
	// doc-comment directive covers the whole function; stale, unknown,
	// and empty directives are themselves diagnostics.
	res := checkFixture(t, "directives")
	assertSuppressed(t, res, 4)
}

func TestDurovfFixture(t *testing.T) {
	// Unbounded duration scale-ups, float conversions, and narrowing
	// arithmetic are flagged; constants, mask/modulo bounds, and both
	// clamp idioms (saturating assign, guard return) are clean.
	res := checkFixture(t, "durovf")
	assertSuppressed(t, res, 0)
}

func TestErrdropFixture(t *testing.T) {
	// Silent discards in fail-stop packages are flagged; defers
	// (including deferred cleanup literals), error-propagating cleanup,
	// err-guarded teardown, never-fail writers, and out-of-scope
	// packages are clean. One allow directive records a decision.
	res := checkFixture(t, "errdrop")
	assertSuppressed(t, res, 1)
}

func TestAnalyzersRegistered(t *testing.T) {
	// Exactly the two checks no tier-1 test can stand in for, in
	// documentation order. The invariants of the nine cut ones, context
	// flow and lock discipline among them, are owned by the tests
	// docs/ANALYZERS.md § Ledger names; the meta-check names stay
	// reserved.
	want := []string{"durovf", "errdrop"}
	var got []string
	for _, a := range Analyzers() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v missing name, doc, or run func", a)
		}
		got = append(got, a.Name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("Analyzers() = %v, want %v", got, want)
	}
}

// TestSelfCheck runs the suite over its own package and the command
// tree: the analyzers must hold their own code to the invariants they
// enforce, with no directives and no baseline.
func TestSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the real module")
	}
	m, err := Load("../..", "./internal/lifevet/...", "./cmd/...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	res := Run(m, Analyzers())
	moduleDir, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Diagnostics {
		// The load set drags in module-internal dependencies of the other
		// cmd binaries; those are covered by the module-wide run. The
		// self-check only vouches for the tool's own trees.
		rel, rerr := filepath.Rel(moduleDir, d.File)
		if rerr != nil {
			rel = d.File
		}
		rel = filepath.ToSlash(rel)
		if !strings.HasPrefix(rel, "internal/lifevet/") && !strings.HasPrefix(rel, "cmd/") {
			continue
		}
		t.Errorf("self-check finding: %s", d)
	}
}

// TestModuleBaselineTight runs the full module exactly as CI does and
// holds it to a zero-finding baseline with directives alone: every
// finding must be answered by a positional //lifevet:allow directive,
// and every directive must still suppress something.
func TestModuleBaselineTight(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the real module")
	}
	m, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	res := Run(m, Analyzers())
	for _, d := range res.Diagnostics {
		t.Errorf("module finding: %s", d)
	}
	if res.Suppressed == 0 {
		t.Error("no directive suppressed anything — the module's allow directives were not seen")
	}
}
