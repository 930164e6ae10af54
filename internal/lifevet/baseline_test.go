package lifevet

import (
	"os"
	"path/filepath"
	"testing"
)

func diag(check, file, msg string, line int) Diagnostic {
	return Diagnostic{Check: check, File: file, Line: line, Col: 1, Message: msg}
}

func TestBaselineAbsorbsPinnedFindings(t *testing.T) {
	res := Result{Diagnostics: []Diagnostic{
		diag("durovf", "/mod/a.go", "overflow", 10),
		diag("durovf", "/mod/b.go", "overflow", 20),
	}}
	b := &Baseline{Findings: []BaselineEntry{
		{Check: "durovf", File: "a.go", Message: "overflow"},
	}}
	ApplyBaseline(&res, b, "/mod")
	if res.Baselined != 1 {
		t.Errorf("Baselined = %d, want 1", res.Baselined)
	}
	if len(res.Diagnostics) != 1 || res.Diagnostics[0].File != "/mod/b.go" {
		t.Errorf("surviving diagnostics = %v, want only b.go", res.Diagnostics)
	}
}

func TestBaselineMatchesIgnoringLine(t *testing.T) {
	// The same finding after unrelated edits shifted it: still pinned.
	res := Result{Diagnostics: []Diagnostic{
		diag("durovf", "/mod/a.go", "overflow", 999),
	}}
	b := &Baseline{Findings: []BaselineEntry{
		{Check: "durovf", File: "a.go", Message: "overflow"},
	}}
	ApplyBaseline(&res, b, "/mod")
	if res.Baselined != 1 || len(res.Diagnostics) != 0 {
		t.Errorf("baselined=%d survivors=%v, want 1 and none", res.Baselined, res.Diagnostics)
	}
}

func TestBaselineNewFindingFails(t *testing.T) {
	// An injected finding not in the baseline survives: the ratchet
	// catches regressions even when the file already pins other classes.
	res := Result{Diagnostics: []Diagnostic{
		diag("durovf", "/mod/a.go", "overflow", 10),
		diag("errdrop", "/mod/a.go", "dropped error", 30),
	}}
	b := &Baseline{Findings: []BaselineEntry{
		{Check: "durovf", File: "a.go", Message: "overflow"},
	}}
	ApplyBaseline(&res, b, "/mod")
	if len(res.Diagnostics) != 1 || res.Diagnostics[0].Check != "errdrop" {
		t.Fatalf("survivors = %v, want the injected errdrop finding", res.Diagnostics)
	}
}

func TestBaselineOrphanEntryFails(t *testing.T) {
	// A pinned finding that no longer occurs turns into a stale-baseline
	// diagnostic: the accepted set can only shrink deliberately.
	res := Result{Diagnostics: []Diagnostic{
		diag("durovf", "/mod/a.go", "overflow", 10),
	}}
	b := &Baseline{Findings: []BaselineEntry{
		{Check: "durovf", File: "a.go", Message: "overflow"},
		{Check: "durovf", File: "gone.go", Message: "fixed long ago"},
	}}
	ApplyBaseline(&res, b, "/mod")
	if len(res.Diagnostics) != 1 {
		t.Fatalf("diagnostics = %v, want exactly the stale entry", res.Diagnostics)
	}
	d := res.Diagnostics[0]
	if d.Check != StaleBaselineCheck || d.File != "gone.go" {
		t.Errorf("got %+v, want stale-baseline at gone.go", d)
	}
}

func TestBaselineNeverAbsorbsMetaChecks(t *testing.T) {
	// Stale directives cannot be grandfathered into the baseline.
	res := Result{Diagnostics: []Diagnostic{
		diag(StaleDirectiveCheck, "/mod/a.go", "directive suppressed nothing", 5),
	}}
	b := &Baseline{Findings: []BaselineEntry{
		{Check: StaleDirectiveCheck, File: "a.go", Message: "directive suppressed nothing"},
	}}
	ApplyBaseline(&res, b, "/mod")
	if res.Baselined != 0 {
		t.Errorf("Baselined = %d, want 0: meta-checks are never baselined", res.Baselined)
	}
	// The surviving set holds the stale directive AND the now-orphaned
	// baseline entry (it matched nothing, because it may match nothing).
	if len(res.Diagnostics) != 2 {
		t.Errorf("diagnostics = %v, want stale-directive plus stale-baseline", res.Diagnostics)
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	// BaselineFrom pins every current finding; applying it back absorbs
	// them all, and the file survives a write/load cycle.
	res := Result{Diagnostics: []Diagnostic{
		diag("durovf", "/mod/a.go", "overflow", 10),
		diag("durovf", "/mod/a.go", "overflow", 40), // same class, second site
		diag("errdrop", "/mod/b.go", "dropped", 7),
	}}
	b := BaselineFrom(res, "/mod")
	if len(b.Findings) != 2 {
		t.Fatalf("BaselineFrom produced %d entries, want 2 (deduplicated)", len(b.Findings))
	}

	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := WriteBaseline(path, b); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	ApplyBaseline(&res, loaded, "/mod")
	if len(res.Diagnostics) != 0 || res.Baselined != 3 {
		t.Errorf("survivors=%v baselined=%d, want none and 3", res.Diagnostics, res.Baselined)
	}
}

func TestBaselineLoadErrors(t *testing.T) {
	if _, err := LoadBaseline(filepath.Join(t.TempDir(), "missing.json")); !os.IsNotExist(err) {
		t.Errorf("missing file: err = %v, want IsNotExist", err)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBaseline(bad); err == nil {
		t.Error("corrupt baseline parsed without error")
	}
}

func TestBaselineEndToEndOverFixture(t *testing.T) {
	// The full ratchet over a real analyzer run: pin the durovf
	// fixture's findings, apply, everything absorbed; drop one entry and
	// that finding fails again.
	res, dir := runFixture(t, "durovf")
	if len(res.Diagnostics) == 0 {
		t.Fatal("durovf fixture produced no findings to pin")
	}
	b := BaselineFrom(res, dir)
	ApplyBaseline(&res, b, dir)
	if len(res.Diagnostics) != 0 {
		t.Fatalf("pinned run still has findings: %v", res.Diagnostics)
	}

	res2, dir2 := runFixture(t, "durovf")
	b2 := BaselineFrom(res2, dir2)
	dropped := b2.Findings[0]
	b2.Findings = b2.Findings[1:]
	ApplyBaseline(&res2, b2, dir2)
	if len(res2.Diagnostics) == 0 {
		t.Fatalf("unpinning %v should have left its finding failing", dropped)
	}
}
