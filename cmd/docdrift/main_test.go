package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const repoRoot = "../.."

// manual returns the inventory of the repository and its manual.
func manual(t *testing.T) (inventory, string) {
	t.Helper()
	inv, err := collectInventory(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(repoRoot, manualPath))
	if err != nil {
		t.Fatal(err)
	}
	return inv, string(b)
}

// plantAfter inserts row on the line after the first line of doc that
// starts with anchor.
func plantAfter(t *testing.T, doc, anchor, row string) string {
	t.Helper()
	i := strings.Index(doc, "\n"+anchor)
	if i < 0 {
		t.Fatalf("manual has no line starting with %q", anchor)
	}
	end := i + 1 + strings.Index(doc[i+1:], "\n")
	return doc[:end+1] + row + "\n" + doc[end+1:]
}

func TestManualsMatchTheTree(t *testing.T) {
	inv, doc := manual(t)
	if missing := audit(inv, doc); len(missing) > 0 {
		t.Fatalf("docdrift fails on the committed manual:\n%s", strings.Join(missing, "\n"))
	}
}

// A row left behind for a deleted flag or metric fails the run, and a
// flag row is checked against its own binary: -data-dir is a liferaftd
// flag, so it passes there and fails under skybench.
func TestStaleRowsFail(t *testing.T) {
	inv, doc := manual(t)
	for _, tc := range []struct {
		name, anchor, row, want string
	}{
		{"liferaftd -cache-dir", "| `-addr` |", "| `-cache-dir` | (empty) | the disk cache tier |",
			"flag row -cache-dir names no flag cmd/liferaftd/main.go registers"},
		{"skybench -data-dir", "| `-scale` |", "| `-data-dir` | (empty) | with -tiered only |",
			"flag row -data-dir names no flag cmd/skybench/main.go registers"},
		{"liferaft_prefetch_total", "| `liferaft_engine_pick_seconds` |", "| `liferaft_prefetch_total` | counter | `shard`, `outcome` | prefetch outcomes |",
			"metric row liferaft_prefetch_total names no family registered in non-test code"},
		{"flag row outside a binary's section", "| `liferaft_engine_pick_seconds` |", "| `-cache` | `20` | bucket cache capacity |",
			"flag row -cache sits under no"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			missing := audit(inv, plantAfter(t, doc, tc.anchor, tc.row))
			if len(missing) != 1 || !strings.Contains(missing[0], tc.want) {
				t.Fatalf("audit = %q, want one problem containing %q", missing, tc.want)
			}
		})
	}
	live := plantAfter(t, doc, "| `-addr` |", "| `-data-dir` | (empty) | segment store |")
	if missing := audit(inv, live); len(missing) > 0 {
		t.Fatalf("a row for a flag liferaftd registers was refused: %q", missing)
	}
}

// A comment naming a .md path that matches no file fails the run; the
// path is looked up beside the commenting file, then at the module root,
// and testdata and nested modules are not read.
func TestDanglingDocRefs(t *testing.T) {
	if dangling, err := danglingDocRefs(repoRoot); err != nil || len(dangling) > 0 {
		t.Fatalf("the committed tree: %q, %v", dangling, err)
	}
	root := t.TempDir()
	write := func(path, body string) {
		t.Helper()
		path = filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("docs/GUIDE.md", "")
	write("pkg/NOTES.md", "")
	write("pkg/p.go", "// Package p: see NOTES.md, docs/GUIDE.md\n// and MISSING.md.\npackage p\n\n// README.md is not here.\nfunc F() {}\n")
	write("pkg/testdata/t.go", "// GONE.md\npackage t\n")
	write("sub/go.mod", "module sub\n")
	write("sub/s.go", "// GONE.md\npackage s\n")
	dangling, err := danglingDocRefs(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		filepath.Join(root, "pkg/p.go") + ":2:8: comment names MISSING.md, which matches no file",
		filepath.Join(root, "pkg/p.go") + ":5:4: comment names README.md, which matches no file",
	}
	if strings.Join(dangling, "\n") != strings.Join(want, "\n") {
		t.Fatalf("danglingDocRefs = %q, want %q", dangling, want)
	}
}
