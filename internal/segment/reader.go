package segment

import (
	"cmp"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"liferaft/internal/bucket"
	"liferaft/internal/catalog"
)

// Set is an opened segment directory: the manifest plus one pread
// handle per segment file. Reads are safe for concurrent use (ReadAt
// carries no seek state); Close is not safe concurrently with reads.
type Set struct {
	dir  string
	man  manifest
	segs []*segFile
	// bucketSeg[i] is the segment serving global bucket i; buckets are
	// grouped contiguously, so this is i / BucketsPerSegment, kept as a
	// table anyway so the lookup cannot drift from the files.
	bucketSeg []int
}

// segFile is one opened segment file with its decoded index and fence
// table. Both are immutable after open, so Reopen shares them.
type segFile struct {
	f       *os.File
	hdr     header
	entries []indexEntry
	fences  []fence
}

// OpenSet opens the segment directory at dir: it reads the manifest,
// opens every segment file, and verifies each header, index and fence
// table checksum. Bucket data checksums are verified on read.
func OpenSet(dir string) (*Set, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("segment: %s has no %s (not a segment directory, or an interrupted build)", dir, ManifestName)
		}
		return nil, err
	}
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("segment: corrupt manifest in %s: %w", dir, err)
	}
	if man.FormatVersion != FormatVersion {
		return nil, fmt.Errorf("segment: %s is format version %d (reader supports %d; %s)", dir, man.FormatVersion, FormatVersion, rebuildHint)
	}
	// A manifest that parses but carries nonsense geometry must fail
	// like any other corruption, not panic allocating the lookup table.
	const maxBuckets = 1 << 30
	switch {
	case man.NumBuckets < 0 || man.NumBuckets > maxBuckets:
		return nil, fmt.Errorf("segment: corrupt manifest in %s: num_buckets %d", dir, man.NumBuckets)
	case man.PerBucket <= 0:
		return nil, fmt.Errorf("segment: corrupt manifest in %s: per_bucket %d", dir, man.PerBucket)
	case man.ObjectBytes < RecordBytes:
		return nil, fmt.Errorf("segment: corrupt manifest in %s: object_bytes %d below record size %d", dir, man.ObjectBytes, RecordBytes)
	case man.TotalObjects < 0:
		return nil, fmt.Errorf("segment: corrupt manifest in %s: total_objects %d", dir, man.TotalObjects)
	case len(man.Segments) > man.NumBuckets && man.NumBuckets > 0:
		return nil, fmt.Errorf("segment: corrupt manifest in %s: %d segments for %d buckets", dir, len(man.Segments), man.NumBuckets)
	}
	s := &Set{dir: dir, man: man, bucketSeg: make([]int, man.NumBuckets)}
	next := 0
	for si, name := range man.Segments {
		sf, err := openSegFile(filepath.Join(dir, name))
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("segment: %s: %w", name, err)
		}
		// Appended before validation so every error path below releases
		// this file's descriptor through s.Close().
		s.segs = append(s.segs, sf)
		if int(sf.hdr.firstBucket) != next {
			s.Close()
			return nil, fmt.Errorf("segment: %s covers buckets from %d, want %d (gap or reorder)", name, sf.hdr.firstBucket, next)
		}
		if int64(sf.hdr.objectBytes) != man.ObjectBytes {
			s.Close()
			return nil, fmt.Errorf("segment: %s stride %d disagrees with manifest %d", name, sf.hdr.objectBytes, man.ObjectBytes)
		}
		for b := 0; b < int(sf.hdr.numBuckets); b++ {
			if next >= man.NumBuckets {
				s.Close()
				return nil, fmt.Errorf("segment: %s extends past manifest's %d buckets", name, man.NumBuckets)
			}
			s.bucketSeg[next] = si
			next++
		}
	}
	if next != man.NumBuckets {
		s.Close()
		return nil, fmt.Errorf("segment: directory covers %d buckets, manifest says %d", next, man.NumBuckets)
	}
	return s, nil
}

// openSegFile opens and verifies one segment file's header, index and
// fence table.
func openSegFile(path string) (*segFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	sf, err := loadSegFile(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return sf, nil
}

// readHeader preads and verifies f's header block.
func readHeader(f *os.File) (header, error) {
	hb := make([]byte, BlockSize)
	if _, err := f.ReadAt(hb, 0); err != nil {
		return header{}, fmt.Errorf("reading header: %w", err)
	}
	return unmarshalHeader(hb)
}

// loadSegFile verifies f's header, index and fence table and decodes
// them; f stays the caller's to close on error.
func loadSegFile(f *os.File) (*segFile, error) {
	hdr, err := readHeader(f)
	if err != nil {
		return nil, err
	}
	// Bound every header-derived size by the actual file size before
	// allocating or trusting it: a corrupt (or hostile) header must not
	// drive a multi-gigabyte allocation or out-of-range reads.
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	indexBytes := alignUp(int64(hdr.numBuckets) * indexEntryBytes)
	if BlockSize+indexBytes > size {
		return nil, fmt.Errorf("segment: header claims %d buckets (%d index bytes) but the file is only %d bytes", hdr.numBuckets, indexBytes, size)
	}
	ib := make([]byte, indexBytes)
	if _, err := f.ReadAt(ib, BlockSize); err != nil {
		return nil, fmt.Errorf("reading index: %w", err)
	}
	if sum := crc32.Checksum(ib, castagnoli); sum != hdr.indexCRC {
		return nil, fmt.Errorf("index checksum mismatch")
	}
	// A bucket's fence count follows from its length and the stride, and
	// fences sit in bucket order: anything else is a forged index. Each
	// length is checked against the file size first, so the fence table
	// this sizes is a small fraction of the file.
	sf := &segFile{f: f, hdr: hdr, entries: make([]indexEntry, hdr.numBuckets)}
	stride := int64(hdr.objectBytes)
	var granules int64
	for i := range sf.entries {
		e := getIndexEntry(ib[i*indexEntryBytes:])
		if e.length > uint64(size) {
			return nil, fmt.Errorf("segment: bucket %d index entry claims %d bytes but the file is only %d bytes", i, e.length, size)
		}
		if want := granuleCount(int64(e.length), stride); int64(e.fenceOff) != granules || int64(e.fences) != want {
			return nil, fmt.Errorf("segment: bucket %d index entry claims fences [%d,+%d), want [%d,+%d)", i, e.fenceOff, e.fences, granules, want)
		}
		granules += int64(e.fences)
		sf.entries[i] = e
	}
	fenceBytes := alignUp(granules * fenceEntryBytes)
	dataStart := BlockSize + indexBytes + fenceBytes
	if dataStart > size {
		return nil, fmt.Errorf("segment: index claims %d fences (%d bytes) but the file is only %d bytes", granules, fenceBytes, size)
	}
	for i, e := range sf.entries {
		if e.length != 0 && (e.offset < uint64(dataStart) || e.offset > uint64(size)-e.length) {
			return nil, fmt.Errorf("segment: bucket %d index entry [%d,+%d) outside the data region [%d,%d)", i, e.offset, e.length, dataStart, size)
		}
	}
	fb := make([]byte, fenceBytes)
	if _, err := f.ReadAt(fb, BlockSize+indexBytes); err != nil {
		return nil, fmt.Errorf("reading fence table: %w", err)
	}
	if sum := crc32.Checksum(fb, castagnoli); sum != hdr.fenceCRC {
		return nil, fmt.Errorf("fence table checksum mismatch")
	}
	sf.fences = make([]fence, granules)
	for i := range sf.fences {
		sf.fences[i] = getFence(fb[i*fenceEntryBytes:])
	}
	// Probes binary-search a bucket's fences, which is only sound over
	// non-decreasing first IDs.
	for i, e := range sf.entries {
		fs := sf.fences[e.fenceOff : e.fenceOff+e.fences]
		if !slices.IsSortedFunc(fs, func(a, b fence) int { return cmp.Compare(a.first, b.first) }) {
			return nil, fmt.Errorf("segment: bucket %d fences are not in HTM ID order", i)
		}
	}
	return sf, nil
}

// Dir returns the directory the set was opened from.
func (s *Set) Dir() string { return s.dir }

// NumBuckets returns the number of buckets the set serves.
func (s *Set) NumBuckets() int { return s.man.NumBuckets }

// ObjectBytes returns the on-disk record stride.
func (s *Set) ObjectBytes() int64 { return s.man.ObjectBytes }

// Geometry describes the store's recorded layout and catalog
// provenance, from the manifest.
type Geometry struct {
	// Catalog is the archive name the store was built from.
	Catalog string
	// TotalObjects, NumBuckets, PerBucket, and ObjectBytes are the
	// partition geometry.
	TotalObjects int64
	NumBuckets   int
	PerBucket    int
	ObjectBytes  int64
	// GenLevel and Seed identify a base survey's content exactly;
	// Derived marks a store whose catalog additionally depends on a
	// base survey (so Seed alone cannot re-synthesize it).
	GenLevel int
	Seed     int64
	Derived  bool
}

// Geometry returns the store's recorded geometry, letting a tool that
// holds only the directory rebuild the matching catalog and partition
// (for a non-Derived store).
func (s *Set) Geometry() Geometry {
	return Geometry{
		Catalog:      s.man.Catalog,
		TotalObjects: s.man.TotalObjects,
		NumBuckets:   s.man.NumBuckets,
		PerBucket:    s.man.PerBucket,
		ObjectBytes:  s.man.ObjectBytes,
		GenLevel:     s.man.GenLevel,
		Seed:         s.man.Seed,
		Derived:      s.man.Derived,
	}
}

// Validate checks the set's recorded geometry and provenance against a
// partition; a store built for a different catalog, bucket size, or
// object stride — or from a different seed or materialization level,
// which would serve geometrically-plausible but wrong objects — is
// rejected before the engine reads a single wrong byte.
func (s *Set) Validate(part *bucket.Partition) error {
	cat := part.Catalog()
	switch {
	case s.man.NumBuckets != part.NumBuckets():
		return fmt.Errorf("segment: %s holds %d buckets, partition has %d", s.dir, s.man.NumBuckets, part.NumBuckets())
	case s.man.PerBucket != part.PerBucket():
		return fmt.Errorf("segment: %s built for %d objects/bucket, partition uses %d", s.dir, s.man.PerBucket, part.PerBucket())
	case s.man.ObjectBytes != part.ObjectBytes():
		return fmt.Errorf("segment: %s built with %d-byte objects, partition uses %d", s.dir, s.man.ObjectBytes, part.ObjectBytes())
	case s.man.TotalObjects != int64(cat.Total()):
		return fmt.Errorf("segment: %s holds %d objects, catalog has %d", s.dir, s.man.TotalObjects, cat.Total())
	case s.man.Catalog != cat.Name():
		return fmt.Errorf("segment: %s built from catalog %q, partition is over %q", s.dir, s.man.Catalog, cat.Name())
	case s.man.Seed != cat.Seed():
		return fmt.Errorf("segment: %s built from seed %d, catalog uses %d", s.dir, s.man.Seed, cat.Seed())
	case s.man.GenLevel != cat.GenLevel():
		return fmt.Errorf("segment: %s built at materialization level %d, catalog uses %d", s.dir, s.man.GenLevel, cat.GenLevel())
	case s.man.Derived != cat.Derived():
		return fmt.Errorf("segment: %s derived=%v, catalog derived=%v", s.dir, s.man.Derived, cat.Derived())
	}
	return nil
}

// entry resolves global bucket i to its segment file and index entry.
func (s *Set) entry(i int) (*segFile, indexEntry, error) {
	if i < 0 || i >= len(s.bucketSeg) {
		return nil, indexEntry{}, fmt.Errorf("segment: bucket %d out of [0,%d)", i, len(s.bucketSeg))
	}
	sf := s.segs[s.bucketSeg[i]]
	return sf, sf.entries[i-int(sf.hdr.firstBucket)], nil
}

// readBucket preads bucket i's full data region into buf (grown as
// needed) and verifies its checksum.
func (s *Set) readBucket(i int, buf []byte) ([]byte, error) {
	sf, e, err := s.entry(i)
	if err != nil {
		return nil, err
	}
	buf = slices.Grow(buf[:0], int(e.length))[:e.length]
	if len(buf) == 0 {
		return buf, nil
	}
	if _, err := sf.f.ReadAt(buf, int64(e.offset)); err != nil {
		return nil, fmt.Errorf("segment: bucket %d pread: %w", i, err)
	}
	if sum := crc32.Checksum(buf, castagnoli); sum != e.crc {
		return nil, fmt.Errorf("segment: bucket %d data checksum mismatch (corrupt store)", i)
	}
	return buf, nil
}

// ReadBucketRaw preads bucket i's full data region and verifies its
// checksum, returning the raw records and the number of data bytes
// read. This is the real sequential bucket scan.
func (s *Set) ReadBucketRaw(i int) ([]byte, int64, error) {
	buf, err := s.readBucket(i, nil)
	return buf, int64(len(buf)), err
}

// rawPool recycles the raw record buffers ReadBucket decodes out of: the
// decoded objects outlive the read (they go to the bucket cache), the raw
// bytes never do.
var rawPool = sync.Pool{New: func() any { return new([]byte) }}

// ReadBucket is ReadBucketRaw plus decoding: the bucket's objects in
// HTM-curve order, bit-identical to what the catalog materializes.
func (s *Set) ReadBucket(i int) ([]catalog.Object, int64, error) {
	return s.readBucketInto(i, nil)
}

// readBucketInto is ReadBucket decoding into dst's array when it has the
// room, overwriting whatever dst held.
func (s *Set) readBucketInto(i int, dst []catalog.Object) ([]catalog.Object, int64, error) {
	bp := rawPool.Get().(*[]byte)
	defer rawPool.Put(bp)
	buf, err := s.readBucket(i, *bp)
	if err != nil {
		return nil, 0, err
	}
	*bp = buf
	return appendRecords(dst[:0], buf, int(s.man.ObjectBytes)), int64(len(buf)), nil
}

// appendRecords decodes the whole fixed-stride records in raw onto dst.
func appendRecords(dst []catalog.Object, raw []byte, stride int) []catalog.Object {
	dst = slices.Grow(dst, len(raw)/stride)
	for ; len(raw) >= stride; raw = raw[stride:] {
		dst = append(dst, decodeObject(raw))
	}
	return dst
}

// ReadPages preads up to n BlockSize pages from the head of bucket i's
// data region — the I/O a cost-only index probe pass issues — and
// returns the bytes actually read. Nothing is decoded, so nothing is
// verified: this is the one partial read that skips the checksums
// (materializing probes verify every granule, scans the whole region).
func (s *Set) ReadPages(i, n int) (int64, error) {
	sf, e, err := s.entry(i)
	if err != nil {
		return 0, err
	}
	want := int64(n) * BlockSize
	if want > int64(e.length) {
		want = int64(e.length)
	}
	if want <= 0 {
		return 0, nil
	}
	buf := make([]byte, want)
	if _, err := sf.f.ReadAt(buf, int64(e.offset)); err != nil {
		return 0, fmt.Errorf("segment: bucket %d probe pread: %w", i, err)
	}
	return want, nil
}

// Reopen opens an independent Set over the same directory (fresh file
// descriptors). Sharded engines give each shard its own. The index and
// fence tables are immutable and shared with s; a file whose header no
// longer matches the one they were loaded under is refused.
func (s *Set) Reopen() (*Set, error) {
	ns := &Set{dir: s.dir, man: s.man, bucketSeg: s.bucketSeg}
	for si, sf := range s.segs {
		name := s.man.Segments[si]
		f, err := os.Open(filepath.Join(s.dir, name))
		if err != nil {
			ns.Close()
			return nil, err
		}
		nsf := *sf
		nsf.f = f
		ns.segs = append(ns.segs, &nsf)
		hdr, err := readHeader(f)
		if err == nil && hdr != sf.hdr {
			err = fmt.Errorf("header differs")
		}
		if err != nil {
			ns.Close()
			return nil, fmt.Errorf("segment: %s changed since %s was opened: %w", name, s.dir, err)
		}
	}
	return ns, nil
}

// Close releases every file handle. Safe to call more than once.
func (s *Set) Close() error {
	var first error
	for _, sf := range s.segs {
		if sf.f != nil {
			if err := sf.f.Close(); err != nil && first == nil {
				first = err
			}
			sf.f = nil
		}
	}
	return first
}
