package main

import (
	"slices"
	"testing"

	"liferaft/internal/bucket"
	"liferaft/internal/catalog"
	"liferaft/internal/htm"
	"liferaft/internal/segment"
)

// TestWriteSegmentsStoreReadsBackIndependently is the "store written by
// one tool, read by another" check: writeSegments builds a directory at
// the geometry CI's skygen step uses, and a reader that knows only the
// flags — it re-synthesizes catalog and partition itself, as a daemon
// started on that -data-dir does — opens it, validates it against its own
// partition, and gets back exactly the partition's objects from one
// whole-bucket scan and one ranged index probe.
func TestWriteSegmentsStoreReadsBackIndependently(t *testing.T) {
	const (
		objects     = 30000
		seed        = 42
		genLevel    = 4
		perBucket   = 150
		objectBytes = 512
	)
	dir := t.TempDir()
	if err := writeSegments(dir, objects, seed, genLevel, perBucket, objectBytes); err != nil {
		t.Fatal(err)
	}

	cat, err := catalog.New(catalog.Config{Name: "sdss", N: objects, Seed: seed, GenLevel: genLevel})
	if err != nil {
		t.Fatal(err)
	}
	part, err := bucket.NewPartition(cat, perBucket, objectBytes)
	if err != nil {
		t.Fatal(err)
	}
	set, err := segment.OpenSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if err := set.Validate(part); err != nil {
		t.Fatalf("the store skygen wrote does not validate against a re-synthesized partition: %v", err)
	}
	be := segment.NewBackend(set, true)

	bi := part.NumBuckets() / 2
	whole := part.Materialize(bi)
	scanned, read, err := be.ReadBucket(bi)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(scanned, whole) {
		t.Fatalf("bucket %d: scan returned %d objects that differ from the partition's %d", bi, len(scanned), len(whole))
	}
	if read < int64(len(whole))*objectBytes {
		t.Errorf("bucket %d: scan read %d bytes, less than %d objects of %d bytes", bi, read, len(whole), objectBytes)
	}

	// Probe the middle third of the bucket's ID span: the result is a
	// subsequence of the bucket holding every object whose ID is in range
	// (whole granules come back, so neighbours may ride along).
	key := htm.Range{Start: whole[len(whole)/3].HTMID, End: whole[2*len(whole)/3].HTMID}
	probed, _, err := be.ProbeRanges(bi, []htm.Range{key})
	if err != nil {
		t.Fatal(err)
	}
	g := 0
	for _, o := range whole {
		switch {
		case g < len(probed) && probed[g] == o:
			g++
		case o.HTMID >= key.Start && o.HTMID <= key.End:
			t.Fatalf("bucket %d: probe of %v skipped object %d (HTM ID %d)", bi, key, o.ID, uint64(o.HTMID))
		}
	}
	if g != len(probed) {
		t.Fatalf("bucket %d: probe of %v returned %d objects, only %d of them from the bucket in bucket order", bi, key, len(probed), g)
	}
	if g == 0 || g == len(whole) {
		t.Errorf("bucket %d: probe returned %d of %d objects; the key was meant to select a proper, non-empty part", bi, g, len(whole))
	}
}
