package segment

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"liferaft/internal/bucket"
	"liferaft/internal/catalog"
)

// storeFiles reads every file under dir, keyed by name.
func storeFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files
}

// withGOMAXPROCS runs f at the given width and restores the old one.
func withGOMAXPROCS(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestWriteSameBytesAtEveryWidth: the materializing goroutines only change
// when a bucket is ready, never what is written. The same partition, built
// from a fresh catalog each time so that the trixel memo is filled by the
// workers themselves, must give byte-identical files at one and at four
// workers.
func TestWriteSameBytesAtEveryWidth(t *testing.T) {
	var stores []map[string][]byte
	for _, width := range []int{1, 4} {
		withGOMAXPROCS(width, func() {
			dir, st := writeFixture(t, fixture(t), 4) // 25 buckets -> 7 segments
			if st.Segments != 7 || st.Objects != 3000 {
				t.Fatalf("GOMAXPROCS %d: write stats = %+v", width, st)
			}
			stores = append(stores, storeFiles(t, dir))
		})
	}
	one, four := stores[0], stores[1]
	if len(one) != 8 { // seven segments and the manifest
		t.Fatalf("%d files at GOMAXPROCS 1, want 8", len(one))
	}
	for name, b := range one {
		if !bytes.Equal(b, four[name]) {
			t.Errorf("%s differs between GOMAXPROCS 1 and 4 (%d and %d bytes)", name, len(b), len(four[name]))
		}
	}
	if len(four) != len(one) {
		t.Errorf("%d files at GOMAXPROCS 4, %d at 1", len(four), len(one))
	}
}

// TestWriteFailureCleansUp makes a rename fail by putting a non-empty
// directory where its target goes: the second segment's, while the workers
// are materializing buckets past it, and the manifest's. Write must return
// the error, leave no temporary file and no manifest, and stop every
// goroutine it started before returning; Ensure then rebuilds the store
// once the obstacle is gone.
func TestWriteFailureCleansUp(t *testing.T) {
	part := fixture(t)
	for _, target := range []string{segmentName(1), ManifestName} {
		t.Run(target, func(t *testing.T) {
			dir := t.TempDir()
			blocker := filepath.Join(dir, target)
			if err := os.MkdirAll(filepath.Join(blocker, "occupied"), 0o755); err != nil {
				t.Fatal(err)
			}
			withGOMAXPROCS(4, func() {
				before := runtime.NumGoroutine()
				if _, err := Write(dir, part, WriteOptions{BucketsPerSegment: 8}); err == nil {
					t.Fatalf("Write succeeded with a directory in the way of %s", target)
				}
				// A worker that has returned may not have left the scheduler yet.
				deadline := time.Now().Add(2 * time.Second)
				for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if n := runtime.NumGoroutine(); n > before {
					t.Fatalf("%d goroutines after the failed Write, %d before", n, before)
				}
			})
			if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) > 0 {
				t.Fatalf("failed Write left %v", tmps)
			}
			if err := os.RemoveAll(blocker); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(filepath.Join(dir, ManifestName)); !os.IsNotExist(err) {
				t.Fatalf("failed Write left a manifest (stat: %v)", err)
			}
			set, st, err := Ensure(dir, part, WriteOptions{BucketsPerSegment: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer set.Close()
			if st.Segments != 4 || st.Objects != 3000 {
				t.Fatalf("rebuild stats = %+v", st)
			}
			for i := 0; i < part.NumBuckets(); i++ {
				objs, _, err := set.ReadBucket(i)
				if err != nil {
					t.Fatalf("bucket %d: %v", i, err)
				}
				if !reflect.DeepEqual(objs, part.Materialize(i)) {
					t.Fatalf("rebuilt bucket %d diverges from the catalog", i)
				}
			}
		})
	}
}

// BenchmarkWrite builds a small store from a fresh catalog each iteration,
// so every trixel is synthesized and keyed as a daemon's first start does:
// 40 000 objects in 100 buckets of 400, 64-byte records, 64 buckets a
// segment.
func BenchmarkWrite(b *testing.B) {
	root := b.TempDir()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cat, err := catalog.New(catalog.Config{Name: "bench", N: 40_000, Seed: 7, GenLevel: 4, CacheTrixels: true})
		if err != nil {
			b.Fatal(err)
		}
		part, err := bucket.NewPartition(cat, 400, 64)
		if err != nil {
			b.Fatal(err)
		}
		dir := filepath.Join(root, "store")
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := Write(dir, part, WriteOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
