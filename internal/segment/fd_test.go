package segment

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
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

var errInjected = errors.New("injected file fault")

// faultFS counts the store's file operations and fails the k-th (none
// when k is 0). A failed Close still closes the file; any other failed
// operation is not performed.
type faultFS struct {
	k   int
	ops []string // every operation so far, by name
}

func (fs *faultFS) fail(op string) bool {
	fs.ops = append(fs.ops, op)
	return len(fs.ops) == fs.k
}

// injectFaults routes fsys through a faultFS failing operation k until
// the returned restore runs.
func injectFaults(k int) (fs *faultFS, restore func()) {
	real := fsys
	fs = &faultFS{k: k}
	wrap := func(op string, openFn func(string) (file, error)) func(string) (file, error) {
		return func(name string) (file, error) {
			if fs.fail(op) {
				return nil, errInjected
			}
			f, err := openFn(name)
			if err != nil {
				return nil, err
			}
			return &faultFile{file: f, fs: fs}, nil
		}
	}
	fsys.open = wrap("open", real.open)
	fsys.create = wrap("create", real.create)
	fsys.rename = func(oldpath, newpath string) error {
		if fs.fail("rename") {
			return errInjected
		}
		return real.rename(oldpath, newpath)
	}
	return fs, func() { fsys = real }
}

type faultFile struct {
	file
	fs *faultFS
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if f.fs.fail("ReadAt") {
		return 0, errInjected
	}
	return f.file.ReadAt(p, off)
}

func (f *faultFile) Write(p []byte) (int, error) {
	if f.fs.fail("Write") {
		return 0, errInjected
	}
	return f.file.Write(p)
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	if f.fs.fail("WriteAt") {
		return 0, errInjected
	}
	return f.file.WriteAt(p, off)
}

func (f *faultFile) Seek(off int64, whence int) (int64, error) {
	if f.fs.fail("Seek") {
		return 0, errInjected
	}
	return f.file.Seek(off, whence)
}

func (f *faultFile) Stat() (os.FileInfo, error) {
	if f.fs.fail("Stat") {
		return nil, errInjected
	}
	return f.file.Stat()
}

func (f *faultFile) Sync() error {
	if f.fs.fail("Sync") {
		return errInjected
	}
	return f.file.Sync()
}

func (f *faultFile) Close() error {
	err := f.file.Close()
	if f.fs.fail("Close") {
		return errInjected
	}
	return err
}

// TestFailuresLeakNoFileDescriptors: every failure of the store a caller
// can reach must return with as many descriptors open as before it. A
// daemon that retries a failed open would otherwise run out of them.
//
// The named cases reach real failures: a Write whose directory, segment
// file or rename fails, an OpenSet over a corrupt or missing segment, a
// Reopen over a replaced file, an Ensure over another geometry. Where a
// case names its cause, the error must report it, not a later call's
// failure on what the failed one left behind. The fault sweep runs Write,
// OpenSet, Reopen (through FileBackend.Fork) and Ensure once to count
// their file operations, then once per operation with that one failing.
// Each failure must also return the injected error, leave no *.tmp
// behind, and leave either no manifest or a store that opens and
// validates: never a readable torn one.
func TestFailuresLeakNoFileDescriptors(t *testing.T) {
	part := fixture(t)
	// The first open of the process may start the runtime's poller, whose
	// descriptors stay open; count once so none of them lands in a case.
	openFDs(t)

	cases := []struct {
		name string
		// prepare builds the failing situation and returns the failing call.
		prepare func(t *testing.T) func() error
		cause   string // in the error, when not empty
	}{
		{"Write/store-directory-fails", func(t *testing.T) func() error {
			file := filepath.Join(t.TempDir(), "file")
			if err := os.WriteFile(file, nil, 0o644); err != nil {
				t.Fatal(err)
			}
			return func() error {
				_, err := Write(filepath.Join(file, "store"), part, WriteOptions{BucketsPerSegment: 8})
				return err
			}
		}, "mkdir"},
		{"Write/create-fails", func(t *testing.T) func() error {
			dir := t.TempDir()
			if err := os.Mkdir(filepath.Join(dir, segmentName(1)+".tmp"), 0o755); err != nil {
				t.Fatal(err)
			}
			return func() error {
				_, err := Write(dir, part, WriteOptions{BucketsPerSegment: 8})
				return err
			}
		}, "is a directory"},
		{"Write/rename-fails", func(t *testing.T) func() error {
			dir := t.TempDir()
			if err := os.Mkdir(filepath.Join(dir, segmentName(1)), 0o755); err != nil {
				t.Fatal(err)
			}
			return func() error {
				_, err := Write(dir, part, WriteOptions{BucketsPerSegment: 8})
				return err
			}
		}, ""},
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
		}, ""},
		{"OpenSet/missing-segment", func(t *testing.T) func() error {
			dir, _ := writeFixture(t, part, 8)
			if err := os.Remove(filepath.Join(dir, segmentName(2))); err != nil {
				t.Fatal(err)
			}
			return func() error { _, err := OpenSet(dir); return err }
		}, "no such file"},
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
		}, ""},
		{"Ensure/foreign-geometry", func(t *testing.T) func() error {
			dir, _ := writeFixture(t, part, 8)
			other, err := bucket.NewPartition(part.Catalog(), 150, 64)
			if err != nil {
				t.Fatal(err)
			}
			return func() error { _, _, err := Ensure(dir, other, WriteOptions{}); return err }
		}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fail := c.prepare(t)
			before := openFDs(t)
			err := fail()
			if err == nil {
				t.Fatal("the call succeeded; the case no longer reaches a failure")
			}
			if !strings.Contains(err.Error(), c.cause) {
				t.Errorf("err = %v, want one reporting %q", err, c.cause)
			}
			if after := openFDs(t); after != before {
				t.Errorf("%d descriptors open after the failure, %d before", after, before)
			}
		})
	}

	const group = 8 // 25 buckets -> 4 segments
	sweeps := []struct {
		name string
		// prepare returns the directory the call works in and the call,
		// which returns what it opened, if anything.
		prepare func(t *testing.T) (string, func() (io.Closer, error))
	}{
		{"Write", func(t *testing.T) (string, func() (io.Closer, error)) {
			dir := t.TempDir()
			return dir, func() (io.Closer, error) {
				_, err := Write(dir, part, WriteOptions{BucketsPerSegment: group})
				return nil, err
			}
		}},
		{"OpenSet", func(t *testing.T) (string, func() (io.Closer, error)) {
			dir, _ := writeFixture(t, part, group)
			return dir, func() (io.Closer, error) { return OpenSet(dir) }
		}},
		{"Reopen", func(t *testing.T) (string, func() (io.Closer, error)) {
			dir, _ := writeFixture(t, part, group)
			set, err := OpenSet(dir)
			if err != nil {
				t.Fatal(err)
			}
			b := NewBackend(set, true)
			t.Cleanup(func() { b.Close() })
			return dir, func() (io.Closer, error) { return b.Fork() }
		}},
		{"Ensure", func(t *testing.T) (string, func() (io.Closer, error)) {
			dir := t.TempDir()
			return dir, func() (io.Closer, error) {
				set, _, err := Ensure(dir, part, WriteOptions{BucketsPerSegment: group})
				return set, err
			}
		}},
	}
	// run makes call with operation k failing and returns the operations
	// the call performed and its error.
	run := func(t *testing.T, call func() (io.Closer, error), k int) ([]string, error) {
		fs, restore := injectFaults(k)
		defer restore()
		c, err := call()
		ops := fs.ops
		if err == nil && c != nil {
			if cerr := c.Close(); cerr != nil {
				t.Fatal(cerr)
			}
		}
		return ops, err
	}
	for _, sw := range sweeps {
		_, call := sw.prepare(t)
		ops, err := run(t, call, 0)
		if err != nil {
			t.Fatalf("%s without faults: %v", sw.name, err)
		}
		t.Logf("%s: %d file operations", sw.name, len(ops))
		for k := 1; k <= len(ops); k++ {
			t.Run(fmt.Sprintf("%s/fault-%02d-%s", sw.name, k, ops[k-1]), func(t *testing.T) {
				dir, call := sw.prepare(t)
				before := openFDs(t)
				if _, err := run(t, call, k); !errors.Is(err, errInjected) {
					t.Fatalf("failing %s returned %v, want the injected fault", ops[k-1], err)
				}
				if after := openFDs(t); after != before {
					t.Errorf("%d descriptors open after the failure, %d before", after, before)
				}
				if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) > 0 {
					t.Errorf("the failure left %v", tmps)
				}
				if _, err := os.Stat(filepath.Join(dir, ManifestName)); err == nil {
					set, err := OpenSet(dir)
					if err != nil {
						t.Fatalf("the failure left a manifest over a store that does not open: %v", err)
					}
					defer set.Close()
					if err := set.Validate(part); err != nil {
						t.Errorf("the failure left a manifest over a store that does not validate: %v", err)
					}
				}
			})
		}
	}
}

// TestCloseReportsAFailedClose: closing a file store reports a segment
// file's failed close; the other files still close.
func TestCloseReportsAFailedClose(t *testing.T) {
	dir, _ := writeFixture(t, fixture(t), 8)
	openFDs(t)
	before := openFDs(t)
	fs, restore := injectFaults(0)
	defer restore()
	set, err := OpenSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	fs.k = len(fs.ops) + 1 // the first segment file's close
	if err := NewBackend(set, true).Close(); !errors.Is(err, errInjected) {
		t.Errorf("Close = %v, want the injected fault", err)
	}
	if after := openFDs(t); after != before {
		t.Errorf("%d descriptors open after Close, %d before OpenSet", after, before)
	}
}
