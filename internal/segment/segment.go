// Package segment implements the persistent on-disk bucket store: the
// real-I/O backend behind bucket.Store. The analytic model in
// internal/disk reproduces the paper's measured constants without
// touching hardware; this package is where the reproduction finally
// does real reads, so throughput can be measured against actual disks
// instead of derived from Tb and Tm.
//
// Layout. A segment directory holds one segment file per *bucket
// group* — a contiguous run of buckets in HTM-curve order — plus a
// MANIFEST.json written last (its atomic rename marks the directory
// complete). Each segment file is
//
//	[ header block | bucket index | fence table | bucket blocks ... ]
//
// where every region starts on a BlockSize (4 KiB) boundary:
//
//   - The header is one 4 KiB block: magic, format version, the bucket
//     range the file covers, the record stride, and three CRC32-C
//     checksums (over the header fields, the index region, and the
//     fence table), so a truncated or foreign file is rejected before
//     any bucket is read.
//   - The index holds one fixed-width entry per bucket: data offset,
//     byte length, object count, the CRC32-C of the bucket's data
//     region, and where the bucket's fences sit in the fence table.
//   - The fence table holds one entry per granule — a run of whole
//     records of about 4 KiB — of every bucket: the granule's first
//     level-14 HTM ID and the CRC32-C of its bytes. Buckets are sorted
//     by HTM ID, so the fences are a sparse index: a fill — a scan or
//     an index probe — binary-searches them and reads, verifies and
//     decodes only the granules its ID ranges overlap (see probe.go).
//   - A bucket block is the bucket's objects encoded as fixed-stride
//     records (the stride is the partition's on-disk object size, the
//     paper's 4 KiB SDSS row by default), in HTM-curve order — exactly
//     what Partition.Materialize returns, so a full-block pread is the
//     sequential bucket scan the scheduler charges for.
//
// Records encode every catalog.Object field bit-exactly (IEEE-754 bits
// for the floats), so a materializing read returns objects identical to
// the synthetic catalog's — the property the backend parity test in
// internal/core relies on.
//
// Readers use pread (os.File.ReadAt) exclusively: no seek state, safe
// for concurrent bucket reads from one descriptor, and each shard of a
// sharded engine opens its own Set so descriptors are never shared
// across schedulers.
package segment

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"liferaft/internal/catalog"
	"liferaft/internal/geom"
	"liferaft/internal/htm"
)

// floatBits and bitsFloat round-trip IEEE-754 doubles bit-exactly, so
// positions and magnitudes survive the disk unchanged.
func floatBits(f float64) uint64 { return math.Float64bits(f) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

const (
	// Magic identifies a LifeRaft segment file ("LFSG").
	Magic = 0x4C465347
	// FormatVersion is bumped on any incompatible layout change;
	// readers reject files from other versions.
	FormatVersion = 2
	// BlockSize aligns the header, index, and every bucket's data
	// region. 4 KiB matches both the paper's per-object row size and
	// the page size real disks and file systems transfer in.
	BlockSize = 4096
	// RecordBytes is the encoded payload of one object: ID, level-14
	// HTM ID, three position coordinates, and the magnitude, all
	// little-endian 8-byte words. The on-disk stride is the partition's
	// object size and must be at least this.
	RecordBytes = 48
	// headerBytes is the fixed-width header field region covered by the
	// header checksum.
	headerBytes = 40
	// indexEntryBytes is the fixed width of one bucket index entry.
	indexEntryBytes = 32
	// fenceEntryBytes is the fixed width of one fence table entry.
	fenceEntryBytes = 16
	// ManifestName is the directory's completion marker, written last.
	ManifestName = "MANIFEST.json"
)

// castagnoli is the CRC32-C table; Castagnoli is hardware-accelerated
// on amd64/arm64, which matters on the scan path.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// header describes one segment file.
type header struct {
	version     uint32
	firstBucket uint32
	numBuckets  uint32
	objectBytes uint32
	blockSize   uint32
	indexCRC    uint32
	fenceCRC    uint32
}

// marshalHeader encodes h into a BlockSize block. Layout (little-endian
// u32 words): magic, version, flags, firstBucket, numBuckets,
// objectBytes, blockSize, indexCRC, fenceCRC, headerCRC.
func marshalHeader(h header) []byte {
	b := make([]byte, BlockSize)
	le := binary.LittleEndian
	le.PutUint32(b[0:], Magic)
	le.PutUint32(b[4:], h.version)
	le.PutUint32(b[8:], 0) // flags, reserved
	le.PutUint32(b[12:], h.firstBucket)
	le.PutUint32(b[16:], h.numBuckets)
	le.PutUint32(b[20:], h.objectBytes)
	le.PutUint32(b[24:], h.blockSize)
	le.PutUint32(b[28:], h.indexCRC)
	le.PutUint32(b[32:], h.fenceCRC)
	le.PutUint32(b[36:], crc32.Checksum(b[:36], castagnoli))
	return b
}

// unmarshalHeader decodes and verifies a header block.
func unmarshalHeader(b []byte) (header, error) {
	if len(b) < headerBytes {
		return header{}, fmt.Errorf("segment: short header (%d bytes)", len(b))
	}
	le := binary.LittleEndian
	if got := le.Uint32(b[0:]); got != Magic {
		return header{}, fmt.Errorf("segment: bad magic %#x (not a segment file)", got)
	}
	if sum := crc32.Checksum(b[:36], castagnoli); sum != le.Uint32(b[36:]) {
		return header{}, fmt.Errorf("segment: header checksum mismatch")
	}
	h := header{
		version:     le.Uint32(b[4:]),
		firstBucket: le.Uint32(b[12:]),
		numBuckets:  le.Uint32(b[16:]),
		objectBytes: le.Uint32(b[20:]),
		blockSize:   le.Uint32(b[24:]),
		indexCRC:    le.Uint32(b[28:]),
		fenceCRC:    le.Uint32(b[32:]),
	}
	if h.version != FormatVersion {
		return header{}, fmt.Errorf("segment: format version %d (reader supports %d; %s)", h.version, FormatVersion, rebuildHint)
	}
	if h.blockSize != BlockSize {
		return header{}, fmt.Errorf("segment: block size %d (reader supports %d)", h.blockSize, BlockSize)
	}
	if h.objectBytes < RecordBytes {
		return header{}, fmt.Errorf("segment: object stride %d below record size %d", h.objectBytes, RecordBytes)
	}
	return h, nil
}

// rebuildHint ends every version-mismatch error: a store is a
// deterministic function of its catalog, so an old one is replaced, not
// migrated.
const rebuildHint = "delete the directory; it is rebuilt from the catalog"

// indexEntry locates one bucket's data region within its segment file,
// and its fences [fenceOff, fenceOff+fences) within the file's fence
// table.
type indexEntry struct {
	offset   uint64
	length   uint64
	objects  uint32
	crc      uint32
	fenceOff uint32
	fences   uint32
}

func putIndexEntry(b []byte, e indexEntry) {
	le := binary.LittleEndian
	le.PutUint64(b[0:], e.offset)
	le.PutUint64(b[8:], e.length)
	le.PutUint32(b[16:], e.objects)
	le.PutUint32(b[20:], e.crc)
	le.PutUint32(b[24:], e.fenceOff)
	le.PutUint32(b[28:], e.fences)
}

func getIndexEntry(b []byte) indexEntry {
	le := binary.LittleEndian
	return indexEntry{
		offset:   le.Uint64(b[0:]),
		length:   le.Uint64(b[8:]),
		objects:  le.Uint32(b[16:]),
		crc:      le.Uint32(b[20:]),
		fenceOff: le.Uint32(b[24:]),
		fences:   le.Uint32(b[28:]),
	}
}

// fence is one granule's entry in the fence table: the level-14 HTM ID
// of the granule's first record and the CRC32-C of the granule's bytes.
// On disk: first (u64), crc (u32), zero (u32).
type fence struct {
	first htm.ID
	crc   uint32
}

func putFence(b []byte, f fence) {
	le := binary.LittleEndian
	le.PutUint64(b[0:], uint64(f.first))
	le.PutUint32(b[8:], f.crc)
	le.PutUint32(b[12:], 0)
}

func getFence(b []byte) fence {
	le := binary.LittleEndian
	return fence{first: htm.ID(le.Uint64(b[0:])), crc: le.Uint32(b[8:])}
}

// granuleBytes returns the size of one fence granule at the given
// record stride: as many whole records as fit in a block, at least one
// (the paper's 4 KiB rows are one record per granule). Every granule of
// a bucket but the last is exactly this long.
func granuleBytes(stride int64) int64 {
	if stride >= BlockSize {
		return stride
	}
	return BlockSize / stride * stride
}

// granuleCount returns how many granules a data region of length bytes
// splits into.
func granuleCount(length, stride int64) int64 {
	gb := granuleBytes(stride)
	return (length + gb - 1) / gb
}

// encodeObject writes o as one fixed-stride record into dst (stride
// bytes; the tail past RecordBytes is zero padding, standing in for the
// wide survey row the paper's 4 KiB objects model).
func encodeObject(dst []byte, o catalog.Object) {
	le := binary.LittleEndian
	le.PutUint64(dst[0:], o.ID)
	le.PutUint64(dst[8:], uint64(o.HTMID))
	le.PutUint64(dst[16:], floatBits(o.Pos.X))
	le.PutUint64(dst[24:], floatBits(o.Pos.Y))
	le.PutUint64(dst[32:], floatBits(o.Pos.Z))
	le.PutUint64(dst[40:], floatBits(o.Mag))
}

// decodeObject is the exact inverse of encodeObject.
func decodeObject(src []byte) catalog.Object {
	le := binary.LittleEndian
	return catalog.Object{
		ID:    le.Uint64(src[0:]),
		HTMID: htm.ID(le.Uint64(src[8:])),
		Pos: geom.Vec3{
			X: bitsFloat(le.Uint64(src[16:])),
			Y: bitsFloat(le.Uint64(src[24:])),
			Z: bitsFloat(le.Uint64(src[32:])),
		},
		Mag: bitsFloat(le.Uint64(src[40:])),
	}
}

// alignUp rounds n up to the next BlockSize boundary.
func alignUp(n int64) int64 {
	rem := n % BlockSize
	if rem == 0 {
		return n
	}
	return n + BlockSize - rem
}

// segmentName returns the file name of segment i.
func segmentName(i int) string { return fmt.Sprintf("seg-%05d.lfseg", i) }
