package segment

import (
	"os"
	"path/filepath"
	"testing"

	"liferaft/internal/bucket"
)

// openFDs counts this process's open file descriptors, skipping the test
// where /proc/self/fd cannot be read.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count open descriptors: %v", err)
	}
	return len(ents)
}

// TestFailuresLeakNoFileDescriptors: every failure of the store a caller
// can reach — a Write whose rename fails, an OpenSet over a corrupt or
// missing segment, a Reopen over a replaced file, an Ensure over another
// geometry — must return with as many descriptors open as before it. A
// daemon that retries a failed open would otherwise run out of them.
func TestFailuresLeakNoFileDescriptors(t *testing.T) {
	part := fixture(t)
	// The first open of the process may start the runtime's poller, whose
	// descriptors stay open; count once so none of them lands in a case.
	openFDs(t)

	cases := []struct {
		name string
		// prepare builds the failing situation and returns the failing call.
		prepare func(t *testing.T) func() error
	}{
		{"Write/rename-fails", func(t *testing.T) func() error {
			dir := t.TempDir()
			if err := os.Mkdir(filepath.Join(dir, segmentName(1)), 0o755); err != nil {
				t.Fatal(err)
			}
			return func() error {
				_, err := Write(dir, part, WriteOptions{BucketsPerSegment: 8})
				return err
			}
		}},
		{"OpenSet/corrupt-second-header", func(t *testing.T) func() error {
			dir, _ := writeFixture(t, part, 8)
			path := filepath.Join(dir, segmentName(1))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[16] ^= 0xFF // numBuckets: the header checksum no longer holds
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return func() error { _, err := OpenSet(dir); return err }
		}},
		{"OpenSet/missing-segment", func(t *testing.T) func() error {
			dir, _ := writeFixture(t, part, 8)
			if err := os.Remove(filepath.Join(dir, segmentName(2))); err != nil {
				t.Fatal(err)
			}
			return func() error { _, err := OpenSet(dir); return err }
		}},
		{"Reopen/replaced-segment", func(t *testing.T) func() error {
			dir, _ := writeFixture(t, part, 8)
			set, err := OpenSet(dir)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { set.Close() })
			// Segment 2's file under segment 1's name: a valid segment whose
			// header starts at another bucket.
			data, err := os.ReadFile(filepath.Join(dir, segmentName(2)))
			if err != nil {
				t.Fatal(err)
			}
			tmp := filepath.Join(dir, "replacement")
			if err := os.WriteFile(tmp, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Rename(tmp, filepath.Join(dir, segmentName(1))); err != nil {
				t.Fatal(err)
			}
			return func() error { _, err := set.Reopen(); return err }
		}},
		{"Ensure/foreign-geometry", func(t *testing.T) func() error {
			dir, _ := writeFixture(t, part, 8)
			other, err := bucket.NewPartition(part.Catalog(), 150, 64)
			if err != nil {
				t.Fatal(err)
			}
			return func() error { _, _, err := Ensure(dir, other, WriteOptions{}); return err }
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fail := c.prepare(t)
			before := openFDs(t)
			if err := fail(); err == nil {
				t.Fatal("the call succeeded; the case no longer reaches a failure")
			}
			if after := openFDs(t); after != before {
				t.Errorf("%d descriptors open after the failure, %d before", after, before)
			}
		})
	}
}
