package segment

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"liferaft/internal/bucket"
	"liferaft/internal/catalog"
	"liferaft/internal/geom"
	"liferaft/internal/htm"
	"liferaft/internal/xmatch"
)

// encodeRecords lays objs out as fixed-stride records.
func encodeRecords(stride int, objs []catalog.Object) []byte {
	b := make([]byte, len(objs)*stride)
	for j, o := range objs {
		encodeObject(b[j*stride:], o)
	}
	return b
}

// inRanges reports whether id lies in any of ranges.
func inRanges(id htm.ID, ranges []htm.Range) bool {
	for _, r := range ranges {
		if r.Contains(id) {
			return true
		}
	}
	return false
}

// rawRanges prints ranges as plain numbers (the tests probe IDs that are
// not valid trixels, which htm.Range's String refuses).
func rawRanges(ranges []htm.Range) string {
	var b strings.Builder
	for _, r := range ranges {
		fmt.Fprintf(&b, "[%d,%d]", uint64(r.Start), uint64(r.End))
	}
	return b.String()
}

// checkProbe asserts the ProbeRanges contract for one result: got is a
// subsequence of the bucket (so still in HTM-curve order) holding every
// object whose ID lies in any range.
func checkProbe(t *testing.T, what string, whole, got []catalog.Object, ranges []htm.Range) {
	t.Helper()
	w := 0
	for _, o := range got {
		for w < len(whole) && whole[w] != o {
			if inRanges(whole[w].HTMID, ranges) {
				t.Fatalf("%s: probe of %s skipped object %d (HTM ID %d)", what, rawRanges(ranges), whole[w].ID, uint64(whole[w].HTMID))
			}
			w++
		}
		if w == len(whole) {
			t.Fatalf("%s: probe of %s returned object %d, which is not in the bucket at that position", what, rawRanges(ranges), o.ID)
		}
		w++
	}
	for ; w < len(whole); w++ {
		if inRanges(whole[w].HTMID, ranges) {
			t.Fatalf("%s: probe of %s skipped object %d (HTM ID %d)", what, rawRanges(ranges), whole[w].ID, uint64(whole[w].HTMID))
		}
	}
}

// Granule k covers [first_k, first_k+1] inclusive on both ends: every
// case here lays equal IDs across granule boundaries (runs of three IDs
// against granules of 64, 40, 85 or one record, and one run longer than
// a whole granule) and probes every interval between the IDs that occur
// and their neighbours.
func TestFenceGranuleEdges(t *testing.T) {
	for _, tc := range []struct {
		name    string
		stride  int
		records int
	}{
		{"stride divides the block", 64, 300},
		{"stride does not divide the block", 100, 170},
		{"bare records", RecordBytes, 200},
		{"one block per record", BlockSize, 20},
		{"stride above the block", 5000, 20},
		{"one record", 64, 1},
		{"empty bucket", 64, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			perGranule := int(granuleBytes(int64(tc.stride))) / tc.stride
			objs := make([]catalog.Object, tc.records)
			for j := range objs {
				id := htm.ID(1000 + j/3*2) // runs of three, gaps of one
				if long := tc.records / 2; j >= long && j < long+perGranule+perGranule/2+2 {
					id = htm.ID(1000 + long/3*2) // a run that swallows a granule
				}
				objs[j] = catalog.Object{ID: uint64(j), HTMID: id, Mag: float64(j)}
			}
			// The probed bucket sits between an empty one and a decoy, so
			// offsets into the fence table and the file are not zero.
			decoy := encodeRecords(tc.stride, []catalog.Object{{ID: 9, HTMID: 5}})
			set, err := openImage(t, buildSegImage(tc.stride, [][]byte{nil, decoy, encodeRecords(tc.stride, objs), decoy}))
			if err != nil {
				t.Fatal(err)
			}
			ids := []htm.ID{0, 1, ^htm.ID(0)}
			for _, o := range objs {
				if ids[len(ids)-1] != o.HTMID+1 {
					ids = append(ids, o.HTMID-1, o.HTMID, o.HTMID+1)
				}
			}
			var sc probeScratch
			regionBytes := int64(len(objs) * tc.stride)
			for _, lo := range ids {
				for _, hi := range ids {
					if lo > hi {
						continue
					}
					ranges := []htm.Range{{Start: lo, End: hi}}
					got, read, err := set.probeRanges(&sc, 2, ranges)
					if err != nil {
						t.Fatal(err)
					}
					checkProbe(t, tc.name, objs, got, ranges)
					if read != int64(len(got)*tc.stride) || read > regionBytes {
						t.Fatalf("probe of %s read %d bytes for %d objects of a %d-byte bucket", rawRanges(ranges), read, len(got), regionBytes)
					}
					// A single-ID probe reads the granule(s) holding the ID's
					// run and at most one neighbour each side — not the bucket.
					if lo == hi && len(got) > 5*perGranule+2 {
						t.Fatalf("single-ID probe %s returned %d of %d objects", rawRanges(ranges), len(got), len(objs))
					}
				}
			}
			if got, read, err := set.probeRanges(&sc, 0, everyID); err != nil || len(got) != 0 || read != 0 {
				t.Fatalf("probe of an empty bucket = %d objects, %d bytes, %v", len(got), read, err)
			}
			// The scan path over the same hand-built image agrees.
			if whole, _, err := set.ReadBucket(2); err != nil || !reflect.DeepEqual(whole, objs) && len(objs) > 0 {
				t.Fatalf("scan of the hand-built bucket diverges (err %v)", err)
			}
		})
	}
}

// The writer and the hand-built image agree byte for byte on a real
// partition, so the edge cases above test the layout Write produces.
func TestWriterMatchesHandBuiltImage(t *testing.T) {
	part := fixture(t)
	dir, _ := writeFixture(t, part, part.NumBuckets())
	written, err := os.ReadFile(filepath.Join(dir, segmentName(0)))
	if err != nil {
		t.Fatal(err)
	}
	// buildSegImage packs buckets back to back; Write pads each to a
	// block, so compare header-to-fences exactly and the data per bucket.
	set, err := OpenSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	buckets := make([][]byte, part.NumBuckets())
	for i := range buckets {
		buckets[i] = encodeRecords(64, part.Materialize(i))
	}
	built, err := openImage(t, buildSegImage(64, buckets))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(set.segs[0].fences, built.segs[0].fences) {
		t.Fatal("Write and the hand-built image disagree on the fence table")
	}
	for i, e := range set.segs[0].entries {
		b := built.segs[0].entries[i]
		if e.length != b.length || e.crc != b.crc || e.fenceOff != b.fenceOff || e.fences != b.fences || e.objects != b.objects {
			t.Fatalf("bucket %d index entry: Write %+v, hand-built %+v", i, e, b)
		}
		if string(written[e.offset:e.offset+e.length]) != string(buckets[i]) {
			t.Fatalf("bucket %d data diverges", i)
		}
	}
}

// probeFixture is a partition with buckets of many granules: 750 objects
// at a 96-byte stride are 18 granules of 42 records (4032 bytes).
func probeFixture(t *testing.T) *bucket.Partition {
	t.Helper()
	cat, err := catalog.New(catalog.Config{Name: "probe-test", N: 6000, Seed: 11, GenLevel: 4, CacheTrixels: true})
	if err != nil {
		t.Fatal(err)
	}
	part, err := bucket.NewPartition(cat, 750, 96)
	if err != nil {
		t.Fatal(err)
	}
	return part
}

// randomQueue draws a workload queue for bucket bi: mostly jittered
// copies of the bucket's own objects (so there are matches), some from
// anywhere, with error radii from arcseconds to half a degree.
func randomQueue(rng *rand.Rand, part *bucket.Partition, bi int) []xmatch.WorkloadObject {
	whole := part.Materialize(bi)
	total := int64(part.Catalog().Total())
	queue := make([]xmatch.WorkloadObject, 1+rng.IntN(12))
	for k := range queue {
		src := whole[rng.IntN(len(whole))]
		if rng.IntN(5) == 0 {
			ord := rng.Int64N(total)
			src = part.Catalog().Objects(ord, ord+1)[0]
		}
		radius := geom.ArcsecToRad(1 + rng.Float64()*4)
		if rng.IntN(6) == 0 {
			radius = geom.ArcsecToRad(1800 * rng.Float64())
		}
		queue[k] = xmatch.NewWorkloadObject(uint64(1+k%3), src, radius)
	}
	return queue
}

func queueRanges(queue []xmatch.WorkloadObject) []htm.Range {
	ranges := make([]htm.Range, len(queue))
	for k, wo := range queue {
		ranges[k] = wo.Range()
	}
	return ranges
}

// Property: over random buckets and random range sets, ProbeRanges
// returns a superset of the objects in range and IndexJoin over it
// equals the brute-force join over the whole bucket.
func TestProbeRangesProperty(t *testing.T) {
	part := probeFixture(t)
	dir, _ := writeFixture(t, part, 3)
	set, err := OpenSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	file := NewBackend(set, true)
	defer file.Close()

	rng := rand.New(rand.NewPCG(14, 2))
	var shrunk int
	for n := 0; n < 300; n++ {
		bi := rng.IntN(part.NumBuckets())
		whole := part.Materialize(bi)
		queue := randomQueue(rng, part, bi)
		ranges := queueRanges(queue)
		want := xmatch.BruteForce(whole, queue, nil)
		xmatch.SortPairs(want)
		what := fmt.Sprintf("probe %d, bucket %d", n, bi)
		got, read, err := file.ProbeRanges(bi, ranges)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		checkProbe(t, what, whole, got, ranges)
		if read != int64(len(got))*part.ObjectBytes() {
			t.Fatalf("%s: read %d bytes for %d objects", what, read, len(got))
		}
		if len(got) < len(whole) {
			shrunk++
		}
		pairs := xmatch.IndexJoin(got, queue, nil)
		xmatch.SortPairs(pairs)
		if !reflect.DeepEqual(pairs, want) {
			t.Fatalf("%s: IndexJoin over the probe found %d pairs, brute force over the bucket %d", what, len(pairs), len(want))
		}
	}
	if shrunk < 200 {
		t.Errorf("only %d of 300 probes returned less than the whole bucket", shrunk)
	}
}

// An object whose bounding range runs on past a bucket is probed there by
// xmatch.WorkloadObject.RangeIn — what its error circle reaches in that
// bucket. Over catalog objects near bucket boundaries and points on the
// octahedron's edges and vertices (whose bounding ranges sweep whole
// faces): a bucket the circle does not reach gets an empty key, for which
// nothing is read, and in every bucket the join over the probe equals the
// brute-force join over the whole bucket.
func TestProbeByBucketKeys(t *testing.T) {
	part := probeFixture(t)
	dir, _ := writeFixture(t, part, 3)
	set, err := OpenSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	file := NewBackend(set, true)
	defer file.Close()

	var queue []xmatch.WorkloadObject
	for _, o := range part.Catalog().Objects(0, int64(part.Catalog().Total())) {
		wo := xmatch.NewWorkloadObject(1, o, geom.ArcsecToRad(300))
		if len(part.BucketsForRanges(wo.Ranges())) > 1 {
			queue = append(queue, wo)
		}
	}
	if len(queue) < 10 {
		t.Fatalf("only %d catalog objects straddle a bucket boundary", len(queue))
	}
	for f := 0; f < 8; f++ {
		tri := htm.FaceTriangle(f)
		for k, p := range []geom.Vec3{tri.V0, tri.V0.Mid(tri.V1), tri.V1.Mid(tri.V2), tri.V2.Mid(tri.V0)} {
			o := catalog.Object{ID: uint64(1_000_000 + 4*f + k), Pos: p, HTMID: htm.Lookup(p, htm.PaperLevel)}
			queue = append(queue, xmatch.NewWorkloadObject(1, o, geom.ArcsecToRad(5)))
		}
	}

	unreached, swept := 0, 0
	for _, wo := range queue {
		cover := htm.CoverCap(geom.NewCap(wo.Obj.Pos, wo.Radius), htm.PaperLevel)
		buckets := part.BucketsForRanges(wo.Ranges())
		if len(buckets) > 4 {
			swept++
		}
		for _, bi := range buckets {
			what := fmt.Sprintf("object %d bucket %d", wo.Obj.ID, bi)
			span := part.Bucket(bi).Span
			key := wo.RangeIn(span)
			whole := part.Materialize(bi)
			got, read, err := file.ProbeRanges(bi, []htm.Range{key})
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			reached := false
			for _, r := range cover {
				reached = reached || r.Overlaps(span)
			}
			if !reached {
				unreached++
				if key.Start <= key.End || read != 0 || len(got) != 0 {
					t.Fatalf("%s: the circle does not reach the bucket, yet key %s read %d bytes, %d objects", what, rawRanges([]htm.Range{key}), read, len(got))
				}
			} else if key.Start < span.Start || key.End > span.End {
				t.Fatalf("%s: key %s outside the bucket's span %s", what, rawRanges([]htm.Range{key}), rawRanges([]htm.Range{span}))
			}
			checkProbe(t, what, whole, got, cover)
			pairs := xmatch.IndexJoin(got, []xmatch.WorkloadObject{wo}, nil)
			want := xmatch.BruteForce(whole, []xmatch.WorkloadObject{wo}, nil)
			xmatch.SortPairs(pairs)
			xmatch.SortPairs(want)
			if !reflect.DeepEqual(pairs, want) {
				t.Fatalf("%s: IndexJoin over the probe found %d pairs, brute force over the bucket %d", what, len(pairs), len(want))
			}
		}
	}
	if swept < 8 || unreached < 20 {
		t.Errorf("%d objects swept more than four buckets, %d buckets were not reached; the fixture no longer exercises the sweep", swept, unreached)
	}
}

// A flipped bit inside a granule a probe reads fails the probe; one in a
// granule it skips does not, and the next scan of that bucket fails on
// the whole-bucket checksum.
func TestProbeChecksumPerGranule(t *testing.T) {
	part := probeFixture(t)
	dir, _ := writeFixture(t, part, 3)
	path := filepath.Join(dir, segmentName(0))
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	set, err := OpenSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	const bi = 1
	_, e, _ := set.entry(bi)
	whole := part.Materialize(bi)
	gb := granuleBytes(part.ObjectBytes())
	perGranule := int(gb / part.ObjectBytes())
	// Probe one ID in the middle of granule 5: it reads granules 4..5 or
	// 5..6 at most, never 0 or 17.
	id := whole[5*perGranule+perGranule/2].HTMID
	ranges := []htm.Range{{Start: id, End: id}}
	be := NewBackend(set, true)

	flip := func(granule int64) {
		t.Helper()
		mut := append([]byte(nil), clean...)
		mut[int64(e.offset)+granule*gb+gb/3] ^= 0x04
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	flip(5)
	if _, _, err := be.ProbeRanges(bi, ranges); err == nil || !strings.Contains(err.Error(), "granule 5 checksum") {
		t.Fatalf("probe over a corrupt granule = %v, want a granule checksum error", err)
	}
	flip(17)
	got, _, err := be.ProbeRanges(bi, ranges)
	if err != nil {
		t.Fatalf("probe that skips the corrupt granule: %v", err)
	}
	checkProbe(t, "skip", whole, got, ranges)
	if _, _, err := be.ReadBucket(bi); err == nil || !strings.Contains(err.Error(), "data checksum") {
		t.Fatalf("scan of the corrupt bucket = %v, want the whole-bucket checksum error", err)
	}
	if _, _, err := be.ProbeRanges(bi, everyID); err == nil {
		t.Fatal("probe over every granule of the corrupt bucket succeeded")
	}
}

// A steady-state probe allocates nothing: runs, raw bytes and decoded
// objects all live in the backend's scratch.
func TestProbeRangesZeroAlloc(t *testing.T) {
	part := probeFixture(t)
	dir, _ := writeFixture(t, part, 3)
	set, err := OpenSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	file := NewBackend(set, true)
	defer file.Close()
	rng := rand.New(rand.NewPCG(3, 9))
	var ranges [][]htm.Range
	for bi := 0; bi < part.NumBuckets(); bi++ {
		ranges = append(ranges, queueRanges(randomQueue(rng, part, bi)))
	}
	probeAll := func() {
		for bi, rs := range ranges {
			if _, _, err := file.ProbeRanges(bi, rs); err != nil {
				t.Fatal(err)
			}
		}
	}
	probeAll() // grow the scratch
	if _, _, err := file.ProbeRanges(0, everyID); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, probeAll); allocs != 0 {
		t.Errorf("a steady-state round of probes allocates %.2f times, want 0", allocs)
	}
}

// A v1 directory is refused by the version check, with the way out in
// the message; there is no second read path to serve it through.
func TestOpenRefusesOtherVersions(t *testing.T) {
	part := fixture(t)
	dir, _ := writeFixture(t, part, 8)
	path := filepath.Join(dir, ManifestName)
	man, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := strings.Replace(string(man), `"format_version": 2`, `"format_version": 1`, 1)
	if old == string(man) {
		t.Fatal("manifest does not record format version 2")
	}
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSet(dir); err == nil || !strings.Contains(err.Error(), "delete the directory; it is rebuilt from the catalog") {
		t.Errorf("open of a v1 manifest = %v, want a refusal that says how to rebuild", err)
	}
	h := marshalHeader(header{version: FormatVersion, objectBytes: RecordBytes, blockSize: BlockSize})
	h[4] = 1 // the version word; re-seal so the header CRC does not fail first
	binary.LittleEndian.PutUint32(h[36:], crc32.Checksum(h[:36], castagnoli))
	if _, err := unmarshalHeader(h); err == nil || !strings.Contains(err.Error(), "format version 1") {
		t.Errorf("decode of a v1 header = %v, want a version refusal", err)
	}
}
