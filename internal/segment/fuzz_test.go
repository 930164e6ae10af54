package segment

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"liferaft/internal/catalog"
	"liferaft/internal/htm"
)

// buildSegImage assembles a structurally valid segment-file image
// (header block, aligned index, aligned fence table, data regions) at
// the given record stride, independently of writeSegment, so the fuzzers
// start from inputs that pass every checksum and the fence tests have a
// second opinion on the layout. Each bucket is its raw records.
func buildSegImage(stride int, buckets [][]byte) []byte {
	n := len(buckets)
	gb := int(granuleBytes(int64(stride)))
	var fences []byte
	for _, b := range buckets {
		for ; len(b) > 0; b = b[min(gb, len(b)):] {
			g := b[:min(gb, len(b))]
			var fb [fenceEntryBytes]byte
			putFence(fb[:], fence{first: decodeObject(g).HTMID, crc: crc32.Checksum(g, castagnoli)})
			fences = append(fences, fb[:]...)
		}
	}
	granules := len(fences) / fenceEntryBytes
	fences = append(fences, make([]byte, alignUp(int64(len(fences)))-int64(len(fences)))...)
	indexBytes := alignUp(int64(n) * indexEntryBytes)
	index := make([]byte, indexBytes)
	var data bytes.Buffer
	base := int64(BlockSize) + indexBytes + int64(len(fences))
	fenceOff := 0
	for i, b := range buckets {
		e := indexEntry{
			offset:   uint64(base + int64(data.Len())),
			length:   uint64(len(b)),
			objects:  uint32(len(b) / stride),
			crc:      crc32.Checksum(b, castagnoli),
			fenceOff: uint32(fenceOff),
			fences:   uint32(granuleCount(int64(len(b)), int64(stride))),
		}
		fenceOff += int(e.fences)
		putIndexEntry(index[i*indexEntryBytes:], e)
		data.Write(b)
	}
	if fenceOff != granules {
		panic("buildSegImage: fence count disagrees with granuleCount")
	}
	img := marshalHeader(header{
		version:     FormatVersion,
		firstBucket: 0,
		numBuckets:  uint32(n),
		objectBytes: uint32(stride),
		blockSize:   BlockSize,
		indexCRC:    crc32.Checksum(index, castagnoli),
		fenceCRC:    crc32.Checksum(fences, castagnoli),
	})
	img = append(img, index...)
	img = append(img, fences...)
	img = append(img, data.Bytes()...)
	return img
}

// openImage writes img as segment 0 of a fresh directory and opens it as
// a one-file Set over buckets [0, n).
func openImage(tb testing.TB, img []byte) (*Set, error) {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), segmentName(0))
	if err := os.WriteFile(path, img, 0o644); err != nil {
		tb.Fatal(err)
	}
	sf, err := openSegFile(path)
	if err != nil {
		return nil, err
	}
	if sf.hdr.firstBucket != 0 {
		sf.f.Close()
		return nil, fmt.Errorf("image starts at bucket %d", sf.hdr.firstBucket)
	}
	n := len(sf.entries)
	s := &Set{
		man:       manifest{NumBuckets: n, ObjectBytes: int64(sf.hdr.objectBytes)},
		segs:      []*segFile{sf},
		bucketSeg: make([]int, n),
	}
	tb.Cleanup(func() { s.Close() })
	return s, nil
}

// fuzzBucketPayload is a bucket of RecordBytes-stride records whose HTM
// IDs ascend from key in runs of two.
func fuzzBucketPayload(key, records int) []byte {
	b := make([]byte, records*RecordBytes)
	for j := 0; j < records; j++ {
		encodeObject(b[j*RecordBytes:], catalog.Object{ID: uint64(j), HTMID: htm.ID(key*1000 + j/2), Mag: float64(key)})
	}
	return b
}

// FuzzSegmentHeader drives unmarshalHeader with arbitrary bytes: it
// must reject or decode, never panic, and an accepted header must
// survive an encode/decode roundtrip with identical fields.
func FuzzSegmentHeader(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, headerBytes))
	f.Add(marshalHeader(header{
		version: FormatVersion, firstBucket: 3, numBuckets: 7,
		objectBytes: RecordBytes, blockSize: BlockSize, indexCRC: 0xdeadbeef,
	})[:headerBytes])
	corrupt := marshalHeader(header{version: FormatVersion, numBuckets: 1, objectBytes: RecordBytes, blockSize: BlockSize})
	corrupt[5] ^= 0xFF
	f.Add(corrupt[:headerBytes])
	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := unmarshalHeader(b)
		if err != nil {
			return
		}
		h2, err := unmarshalHeader(marshalHeader(h))
		if err != nil {
			t.Fatalf("re-encoded header failed to decode: %v", err)
		}
		if h2 != h {
			t.Fatalf("header roundtrip changed fields: %+v -> %+v", h, h2)
		}
	})
}

// FuzzSegmentIndex feeds whole fuzzed file images to openSegFile. An
// accepted file must then serve every bucket read path without
// panicking or over-allocating: corrupt stores fail with errors, never
// crashes (the hardened bounds checks in openSegFile are what keep a
// forged numBuckets or index entry from driving a huge allocation).
func FuzzSegmentIndex(f *testing.F) {
	f.Add(buildSegImage(RecordBytes, nil))
	f.Add(buildSegImage(RecordBytes, [][]byte{fuzzBucketPayload(1, 2), nil, fuzzBucketPayload(3, 1)}))
	torn := buildSegImage(RecordBytes, [][]byte{fuzzBucketPayload(5, 4)})
	f.Add(torn[:len(torn)-7]) // truncated data region
	flipped := buildSegImage(RecordBytes, [][]byte{fuzzBucketPayload(9, 2)})
	flipped[BlockSize+3] ^= 0x40 // index corruption
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, img []byte) {
		if len(img) > 1<<20 {
			return // bound disk churn per exec; structure fits well below this
		}
		s, err := openImage(t, img)
		if err != nil {
			return
		}
		sf := s.segs[0]
		for i := range sf.entries {
			raw, _, err := s.ReadBucketRaw(i)
			if err == nil {
				if sum := crc32.Checksum(raw, castagnoli); sum != sf.entries[i].crc {
					t.Fatalf("bucket %d served bytes whose checksum %#x differs from its index entry %#x", i, sum, sf.entries[i].crc)
				}
			}
			if _, _, err := s.ReadBucket(i); err != nil {
				continue
			}
			if _, err := s.ReadPages(i, 1); err != nil {
				t.Fatalf("bucket %d: scan succeeded but probe pread failed: %v", i, err)
			}
		}
	})
}

// everyID is the probe of a caller that does not know its keys.
var everyID = []htm.Range{{Start: 0, End: math.MaxUint64}}

// FuzzSegmentFence forges the parts of a file the probe path trusts: the
// fence table's bytes, and one index entry's fence offset, fence count,
// data offset and length. The checksums over the forged regions are
// recomputed, so the forgeries reach the structural checks behind them
// rather than dying on a CRC. openSegFile must refuse or the probes must
// hold their contract — never a panic, never an allocation past the file
// size (a forged count sizes the fence table), and every object a probe
// returns comes from a granule whose bytes match its fence.
func FuzzSegmentFence(f *testing.F) {
	base := buildSegImage(RecordBytes, [][]byte{fuzzBucketPayload(1, 200), nil, fuzzBucketPayload(7, 90)})
	fenceAt := BlockSize + int(alignUp(3*indexEntryBytes))
	f.Add(uint16(0), uint64(0), []byte{}, uint8(0), uint32(0), uint32(0), uint64(0), uint64(0))                             // the valid image
	f.Add(uint16(8), uint64(0xFF), []byte{}, uint8(0), uint32(0), uint32(0), uint64(0), uint64(0))                          // a granule CRC
	f.Add(uint16(16), uint64(1<<63), []byte{}, uint8(0), uint32(0), uint32(0), uint64(0), uint64(0))                        // fences out of order
	f.Add(uint16(0), uint64(0), []byte{}, uint8(0), uint32(0), uint32(math.MaxUint32), uint64(0), uint64(0))                // a huge fence count
	f.Add(uint16(0), uint64(0), []byte{}, uint8(2), uint32(1), uint32(0), uint64(0), uint64(0))                             // a shifted fence offset
	f.Add(uint16(0), uint64(0), []byte{}, uint8(0), uint32(0), uint32(0), uint64(0), uint64(math.MaxUint64))                // a huge length
	f.Add(uint16(0), uint64(0), []byte{}, uint8(0), uint32(0), uint32(0), uint64(1<<40), uint64(0))                         // data far outside the file
	f.Add(uint16(0), uint64(0), make([]byte, 5000), uint8(1), uint32(0), uint32(0), uint64(0), uint64(4800))                // bytes for a bucket with no fences
	f.Add(uint16(0), uint64(0), make([]byte, 5000), uint8(2), uint32(0), uint32(1), uint64(0), uint64(90*RecordBytes^4800)) // ... and with too many
	f.Fuzz(func(t *testing.T, fenceByte uint16, fenceXor uint64, tail []byte, bucket uint8, fenceOff, fences uint32, offset, length uint64) {
		if len(tail) > 1<<16 {
			return
		}
		img := append(append([]byte(nil), base...), tail...)
		le := binary.LittleEndian
		// Forge eight bytes of the fence table and one index entry, then
		// re-seal the index, fence table and header checksums.
		if at := fenceAt + int(fenceByte)%BlockSize&^7; at+8 <= len(img) {
			le.PutUint64(img[at:], le.Uint64(img[at:])^fenceXor)
		}
		entry := img[BlockSize+int(bucket)%3*indexEntryBytes:]
		e := getIndexEntry(entry)
		e.fenceOff, e.fences, e.offset, e.length = e.fenceOff^fenceOff, e.fences^fences, e.offset^offset, e.length^length
		putIndexEntry(entry, e)
		le.PutUint32(img[28:], crc32.Checksum(img[BlockSize:fenceAt], castagnoli))
		le.PutUint32(img[32:], crc32.Checksum(img[fenceAt:fenceAt+BlockSize], castagnoli))
		le.PutUint32(img[36:], crc32.Checksum(img[:36], castagnoli))

		s, err := openImage(t, img)
		if err != nil {
			return
		}
		sf := s.segs[0]
		if len(sf.fences)*fenceEntryBytes > len(img) {
			t.Fatalf("fence table of %d entries loaded from a %d-byte file", len(sf.fences), len(img))
		}
		var sc probeScratch
		for i, e := range sf.entries {
			for _, ranges := range [][]htm.Range{everyID, {{Start: 3, End: 3}, {Start: 1 << 40, End: 1 << 41}}} {
				objs, read, err := s.probeRanges(&sc, i, ranges)
				if err != nil {
					continue
				}
				if read > int64(e.length) || int64(len(objs))*RecordBytes > read {
					t.Fatalf("bucket %d probe returned %d objects from %d bytes of a %d-byte region", i, len(objs), read, e.length)
				}
			}
		}
	})
}
