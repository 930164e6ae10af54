package segment

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"

	"liferaft/internal/bucket"
)

// DefaultBucketsPerSegment groups 64 buckets per segment file: large
// enough that a paper-scale store is a few hundred files instead of
// twenty thousand, small enough that compaction (a future rewrite unit)
// stays bounded.
const DefaultBucketsPerSegment = 64

// WriteOptions tunes segment building.
type WriteOptions struct {
	// BucketsPerSegment is the bucket-group size; 0 means
	// DefaultBucketsPerSegment.
	BucketsPerSegment int
}

// WriteStats reports what a Write produced.
type WriteStats struct {
	Segments int
	Buckets  int
	Objects  int64
	// Bytes is the total size of the segment files, padding included.
	Bytes int64
}

// manifest is the directory-level completion marker and geometry
// record. Readers validate it against the partition they serve;
// GenLevel/Seed/Derived record the catalog's provenance so a tool
// holding only the directory can re-synthesize the base survey the
// store was built from (see Set.Geometry).
type manifest struct {
	FormatVersion     int      `json:"format_version"`
	Catalog           string   `json:"catalog"`
	TotalObjects      int64    `json:"total_objects"`
	NumBuckets        int      `json:"num_buckets"`
	PerBucket         int      `json:"per_bucket"`
	ObjectBytes       int64    `json:"object_bytes"`
	GenLevel          int      `json:"gen_level"`
	Seed              int64    `json:"seed"`
	Derived           bool     `json:"derived,omitempty"`
	BucketsPerSegment int      `json:"buckets_per_segment"`
	Segments          []string `json:"segments"`
}

// Write materializes every bucket of part into segment files under dir
// (created if missing). Each file is written to a temporary name,
// synced, and renamed; the manifest is written the same way, last, so a
// crash mid-build leaves either a directory without a manifest (rebuilt
// on the next Write) or a complete store — never a readable torn one.
func Write(dir string, part *bucket.Partition, opts WriteOptions) (WriteStats, error) {
	group := opts.BucketsPerSegment
	if group <= 0 {
		group = DefaultBucketsPerSegment
	}
	stride := part.ObjectBytes()
	if stride < RecordBytes {
		return WriteStats{}, fmt.Errorf("segment: partition object size %d cannot hold a %d-byte record", stride, RecordBytes)
	}
	if stride > 1<<31-1 {
		return WriteStats{}, fmt.Errorf("segment: object size %d too large", stride)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return WriteStats{}, err
	}
	var st WriteStats
	m := manifest{
		FormatVersion:     FormatVersion,
		Catalog:           part.Catalog().Name(),
		TotalObjects:      int64(part.Catalog().Total()),
		NumBuckets:        part.NumBuckets(),
		PerBucket:         part.PerBucket(),
		ObjectBytes:       stride,
		GenLevel:          part.Catalog().GenLevel(),
		Seed:              part.Catalog().Seed(),
		Derived:           part.Catalog().Derived(),
		BucketsPerSegment: group,
	}
	for first, seg := 0, 0; first < part.NumBuckets(); first, seg = first+group, seg+1 {
		n := group
		if first+n > part.NumBuckets() {
			n = part.NumBuckets() - first
		}
		name := segmentName(seg)
		written, objs, err := writeSegment(filepath.Join(dir, name), part, first, n, int(stride))
		if err != nil {
			return WriteStats{}, fmt.Errorf("segment: writing %s: %w", name, err)
		}
		m.Segments = append(m.Segments, name)
		st.Segments++
		st.Buckets += n
		st.Objects += objs
		st.Bytes += written
	}
	// Make the segment renames durable before the manifest appears:
	// POSIX does not order directory-entry updates across renames, so
	// without this a power loss could journal the manifest's entry but
	// not a segment's, leaving a manifest that points at missing files
	// — the torn state the manifest-last protocol exists to rule out.
	if err := syncDir(dir); err != nil {
		return WriteStats{}, err
	}
	if err := writeManifest(dir, m); err != nil {
		return WriteStats{}, err
	}
	if err := syncDir(dir); err != nil {
		return WriteStats{}, err
	}
	return st, nil
}

// syncDir fsyncs a directory, making renames into it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeSegment writes one segment file covering buckets [first,
// first+n) and returns its final size and object count. The header,
// index and fence table are laid out first as zero blocks (bucket
// object counts, and with them the granule counts, are known from the
// partition), the bucket data streamed behind them granule by granule,
// and all three are back-filled once every checksum is known.
func writeSegment(path string, part *bucket.Partition, first, n, stride int) (int64, int64, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		if f != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()

	entries := make([]indexEntry, n)
	var granules int64
	for i := range entries {
		length := int64(part.Bucket(first+i).Count()) * int64(stride)
		g := granuleCount(length, int64(stride))
		if granules+g > 1<<32-1 {
			return 0, 0, fmt.Errorf("bucket group needs more than 2^32 fences")
		}
		entries[i] = indexEntry{length: uint64(length), fenceOff: uint32(granules), fences: uint32(g)}
		granules += g
	}
	indexBytes := alignUp(int64(n) * indexEntryBytes)
	fenceBytes := alignUp(granules * fenceEntryBytes)
	dataStart := BlockSize + indexBytes + fenceBytes
	if _, err := f.Seek(dataStart, 0); err != nil {
		return 0, 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fences := make([]byte, fenceBytes)
	// The stride tails past RecordBytes stay zero from the initial make;
	// encodeObject rewrites all of [0, RecordBytes) of every record slot
	// it uses, so the granule buffer needs no clearing.
	granule := make([]byte, granuleBytes(int64(stride)))
	perGranule := len(granule) / stride
	var pad [BlockSize]byte
	off := dataStart
	var objects int64
	for i := range entries {
		e := &entries[i]
		objs := part.Materialize(first + i)
		if int64(len(objs))*int64(stride) != int64(e.length) {
			return 0, 0, fmt.Errorf("bucket %d materialized %d objects, partition says %d", first+i, len(objs), part.Bucket(first+i).Count())
		}
		e.offset, e.objects = uint64(off), uint32(len(objs))
		g := int(e.fenceOff)
		for recs := range slices.Chunk(objs, perGranule) {
			buf := granule[:len(recs)*stride]
			for j, o := range recs {
				encodeObject(buf[j*stride:], o)
			}
			putFence(fences[g*fenceEntryBytes:], fence{first: recs[0].HTMID, crc: crc32.Checksum(buf, castagnoli)})
			g++
			e.crc = crc32.Update(e.crc, castagnoli, buf)
			if _, err := w.Write(buf); err != nil {
				return 0, 0, err
			}
		}
		objects += int64(len(objs))
		// Pad to the next block boundary so every bucket read is
		// block-aligned.
		end := off + int64(e.length)
		if padding := alignUp(end) - end; padding > 0 {
			if _, err := w.Write(pad[:padding]); err != nil {
				return 0, 0, err
			}
		}
		off = alignUp(end)
	}
	if err := w.Flush(); err != nil {
		return 0, 0, err
	}

	// Back-fill the index, fence table and header now that the checksums
	// are known.
	index := make([]byte, indexBytes)
	for i, e := range entries {
		putIndexEntry(index[i*indexEntryBytes:], e)
	}
	if _, err := f.WriteAt(index, BlockSize); err != nil {
		return 0, 0, err
	}
	if _, err := f.WriteAt(fences, BlockSize+indexBytes); err != nil {
		return 0, 0, err
	}
	hdr := marshalHeader(header{
		version:     FormatVersion,
		firstBucket: uint32(first),
		numBuckets:  uint32(n),
		objectBytes: uint32(stride),
		blockSize:   BlockSize,
		indexCRC:    crc32.Checksum(index, castagnoli),
		fenceCRC:    crc32.Checksum(fences, castagnoli),
	})
	if _, err := f.WriteAt(hdr, 0); err != nil {
		return 0, 0, err
	}
	if err := f.Sync(); err != nil {
		return 0, 0, err
	}
	if err := f.Close(); err != nil {
		f = nil
		return 0, 0, err
	}
	f = nil
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, 0, err
	}
	return off, objects, nil
}

// writeManifest atomically installs the manifest: tmp, sync, rename.
func writeManifest(dir string, m manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, ManifestName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, ManifestName))
}

// Ensure opens the segment store under dir, building it first when the
// manifest is missing (an interrupted build leaves no manifest, so
// Ensure also recovers those). The opened set is validated against
// part; a directory built for different geometry is an error, not a
// rebuild — silently clobbering data a caller pointed at by mistake is
// how real stores eat archives.
func Ensure(dir string, part *bucket.Partition, opts WriteOptions) (*Set, WriteStats, error) {
	var st WriteStats
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); os.IsNotExist(err) {
		var werr error
		if st, werr = Write(dir, part, opts); werr != nil {
			return nil, WriteStats{}, werr
		}
	} else if err != nil {
		return nil, WriteStats{}, err
	}
	set, err := OpenSet(dir)
	if err != nil {
		return nil, WriteStats{}, err
	}
	if err := set.Validate(part); err != nil {
		set.Close()
		return nil, WriteStats{}, err
	}
	return set, st, nil
}
