package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const repoRoot = "../.."

// manuals returns the inventory of the repository and its two manuals.
func manuals(t *testing.T) (inventory, string, string) {
	t.Helper()
	inv, err := collectInventory(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	read := func(path string) string {
		b, err := os.ReadFile(filepath.Join(repoRoot, path))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	return inv, read(manualPath), read(analyzersPath)
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
	inv, doc, analyzersDoc := manuals(t)
	if missing, _ := audit(inv, doc, analyzersDoc); len(missing) > 0 {
		t.Fatalf("docdrift fails on the committed manuals:\n%s", strings.Join(missing, "\n"))
	}
}

// A row left behind for a deleted flag or metric fails the run, and a
// flag row is checked against its own binary: -data-dir is a liferaftd
// flag, so it passes there and fails under skybench.
func TestStaleRowsFail(t *testing.T) {
	inv, doc, analyzersDoc := manuals(t)
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
			missing, _ := audit(inv, plantAfter(t, doc, tc.anchor, tc.row), analyzersDoc)
			if len(missing) != 1 || !strings.Contains(missing[0], tc.want) {
				t.Fatalf("audit = %q, want one problem containing %q", missing, tc.want)
			}
		})
	}
	live := plantAfter(t, doc, "| `-addr` |", "| `-data-dir` | (empty) | segment store |")
	if missing, _ := audit(inv, live, analyzersDoc); len(missing) > 0 {
		t.Fatalf("a row for a flag liferaftd registers was refused: %q", missing)
	}
}
