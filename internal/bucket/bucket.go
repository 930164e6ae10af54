// Package bucket implements the equal-sized bucket partitioning of paper
// §3.1 (Figure 1) and the bucket store that serves them from the modeled
// disk.
//
// A partition divides a catalog's objects — already linearly ordered along
// the HTM space-filling curve — into consecutive buckets holding exactly
// the same number of objects (the last bucket may be short). Equal object
// counts give uniform I/O cost per bucket, the property the workload
// throughput metric (Eq. 1) relies on: every out-of-core bucket costs the
// same Tb. Each bucket also carries the contiguous level-14 HTM ID span it
// covers, so an incoming cross-match object's bounding ranges map to
// bucket indices by binary search.
package bucket

import (
	"fmt"
	"sort"
	"time"

	"liferaft/internal/catalog"
	"liferaft/internal/disk"
	"liferaft/internal/htm"
)

// DefaultObjectBytes reproduces the paper's bucket geometry: 10,000-object
// buckets of 40 MB are 4 KiB per object (SDSS photometric rows are wide).
const DefaultObjectBytes = 4096

// Bucket is one equal-sized partition of the catalog.
type Bucket struct {
	// Index is the bucket's position in HTM-curve order, 0-based.
	Index int
	// Lo and Hi delimit the global object ordinals [Lo, Hi).
	Lo, Hi int64
	// Span is the level-14 HTM ID range the bucket's objects fall in.
	// Spans of adjacent buckets may share a boundary trixel; the overlap
	// only widens the coarse filter (never loses a match).
	Span htm.Range
}

// Count returns the number of objects in the bucket.
func (b Bucket) Count() int { return int(b.Hi - b.Lo) }

// String implements fmt.Stringer.
func (b Bucket) String() string {
	return fmt.Sprintf("bucket %d: objects [%d,%d) span %v", b.Index, b.Lo, b.Hi, b.Span)
}

// Partition is an equal-sized bucketing of one catalog.
type Partition struct {
	cat         *catalog.Catalog
	perBucket   int
	objectBytes int64
	buckets     []Bucket
}

// NewPartition divides cat into buckets of exactly perBucket objects
// (the final bucket holds the remainder). objectBytes sets the on-disk
// size per object; pass 0 for DefaultObjectBytes.
func NewPartition(cat *catalog.Catalog, perBucket int, objectBytes int64) (*Partition, error) {
	if perBucket <= 0 {
		return nil, fmt.Errorf("bucket: perBucket %d must be positive", perBucket)
	}
	if objectBytes < 0 {
		return nil, fmt.Errorf("bucket: negative objectBytes %d", objectBytes)
	}
	if objectBytes == 0 {
		objectBytes = DefaultObjectBytes
	}
	total := int64(cat.Total())
	n := int((total + int64(perBucket) - 1) / int64(perBucket))
	p := &Partition{cat: cat, perBucket: perBucket, objectBytes: objectBytes}
	p.buckets = make([]Bucket, n)
	level := cat.GenLevel()
	for i := 0; i < n; i++ {
		lo := int64(i) * int64(perBucket)
		hi := lo + int64(perBucket)
		if hi > total {
			hi = total
		}
		first := cat.TrixelOf(lo)
		last := cat.TrixelOf(hi - 1)
		span := htm.Range{
			Start: htm.FromPos(first, level).RangeAtLevel(htm.PaperLevel).Start,
			End:   htm.FromPos(last, level).RangeAtLevel(htm.PaperLevel).End,
		}
		p.buckets[i] = Bucket{Index: i, Lo: lo, Hi: hi, Span: span}
	}
	return p, nil
}

// NumBuckets returns the number of buckets.
func (p *Partition) NumBuckets() int { return len(p.buckets) }

// Bucket returns bucket i.
func (p *Partition) Bucket(i int) Bucket { return p.buckets[i] }

// PerBucket returns the configured objects-per-bucket quota.
func (p *Partition) PerBucket() int { return p.perBucket }

// ObjectBytes returns the on-disk size per object. Segment files use it
// as their record stride, so the bytes a real read transfers equal the
// bytes the disk model charges for.
func (p *Partition) ObjectBytes() int64 { return p.objectBytes }

// BucketBytes returns the on-disk size of bucket i.
func (p *Partition) BucketBytes(i int) int64 {
	return int64(p.buckets[i].Count()) * p.objectBytes
}

// Catalog returns the underlying catalog.
func (p *Partition) Catalog() *catalog.Catalog { return p.cat }

// BucketsForRanges maps a sorted, merged list of level-14 HTM ranges (as
// produced by htm.CoverCap) to the indices of all buckets whose span
// overlaps any range. The result is sorted and duplicate-free.
func (p *Partition) BucketsForRanges(rs []htm.Range) []int {
	return p.AppendBucketsForRanges(nil, rs)
}

// AppendBucketsForRanges is BucketsForRanges into a caller-provided
// buffer: the overlapping bucket indices are appended to dst (normally
// dst[:0] of a reused slice) and the sorted, duplicate-free result
// returned. The scheduler's admission path uses this to avoid one slice
// allocation per workload object.
func (p *Partition) AppendBucketsForRanges(dst []int, rs []htm.Range) []int {
	out := dst
	base := len(out)
	n := len(p.buckets)
	for _, r := range rs {
		// First bucket whose span may overlap r: spans are ordered by
		// Start, so find the first bucket with Span.End >= r.Start.
		i := sort.Search(n, func(i int) bool { return p.buckets[i].Span.End >= r.Start })
		for ; i < n && p.buckets[i].Span.Start <= r.End; i++ {
			out = append(out, i)
		}
	}
	added := out[base:]
	if len(added) <= 1 {
		return out
	}
	sort.Ints(added)
	w := 1
	for i := 1; i < len(added); i++ {
		if added[i] != added[w-1] {
			added[w] = added[i]
			w++
		}
	}
	return out[:base+w]
}

// Materialize generates the objects of bucket i, sorted by HTM ID. The
// result is deterministic; it is what a sequential scan of the bucket
// returns.
func (p *Partition) Materialize(i int) []catalog.Object {
	b := p.buckets[i]
	return p.cat.Objects(b.Lo, b.Hi)
}

// Backend is a pluggable storage layer under a Store. The default
// (nil) backend is the analytic disk model: reads cost what the model
// says and objects come from the synthetic catalog. A non-nil backend
// performs real I/O — ReadBucket and ProbeRanges block for as long as
// the hardware takes — and the Store accounts the measured elapsed time to
// the disk's statistics instead of charging model cost to the clock.
// internal/segment provides the file-backed implementation.
type Backend interface {
	// ReadBucket returns bucket i's objects in HTM-curve order (nil in
	// cost-only mode) and the number of data bytes read.
	ReadBucket(i int) (objs []catalog.Object, bytesRead int64, err error)
	// ProbeRanges performs the I/O of len(ranges) index probes into
	// bucket i, one per level-14 HTM ID range. In materializing mode it
	// returns, in HTM-curve order, a subset of the bucket that holds
	// every object with an ID in any of the ranges, so the join
	// evaluator can probe it in memory; the slice is the backend's and
	// is valid until its next ProbeRanges. An empty range (Start > End)
	// is a probe that finds nothing: counted, with nothing read for it.
	ProbeRanges(i int, ranges []htm.Range) (objs []catalog.Object, bytesRead int64, err error)
	// Recycle hands back an array this backend's ReadBucket returned and
	// that nothing references any more: the caller gives up every view
	// of it, and the backend may decode a later ReadBucket into it. A
	// backend is free to drop it instead.
	Recycle(objs []catalog.Object)
	// Fork opens an independent backend over the same data (fresh file
	// descriptors); each shard of a sharded engine gets its own.
	Fork() (Backend, error)
	// Close releases the backend's resources.
	Close() error
}

// ReadKind tells a Store observer which access pattern a read used.
type ReadKind string

// Store read kinds.
const (
	// ReadScan: a full sequential scan of a bucket's data region.
	ReadScan ReadKind = "scan"
	// ReadProbe: index probes into a bucket's block run.
	ReadProbe ReadKind = "probe"
)

// Observer receives a callback per Store read — the hook the engine's
// metrics layer uses to export store/segment read latency and read
// errors without the Store depending on any metrics package. Observers
// must be safe for use from the single scheduling goroutine that owns
// the Store and must not block: they run on the service path.
type Observer interface {
	// ObserveRead reports one completed read: the access kind, its
	// elapsed cost and the data bytes it moved — measured on a real
	// backend, modeled on the simulated disk.
	ObserveRead(kind ReadKind, elapsed time.Duration, bytes int64)
	// ObserveReadError reports a failed backend read (checksum mismatch,
	// vanished file) just before the Store's fail-stop panic; it gives
	// the error a chance to reach a metrics scrape or log before the
	// process dies.
	ObserveReadError(kind ReadKind, err error)
}

// Store serves buckets from the modeled disk, charging sequential-scan
// cost for full bucket reads and sorted-probe cost for indexed access.
// The cache layer sits above the store (see the engine); every Store read
// is a real disk transfer.
type Store struct {
	part        *Partition
	dsk         *disk.Disk
	materialize bool
	// backend, when non-nil, replaces the modeled reads with real I/O
	// (see Backend). Read errors from a backend are fail-stop: a
	// checksum mismatch or vanished file panics rather than silently
	// serving wrong matches. DESIGN-segments.md discusses the trade.
	backend Backend
	// obs, when non-nil, is notified of every read; see Observer.
	obs Observer
}

// SetObserver attaches o to the store (nil detaches). The engine wires
// its per-shard metrics here; stores forked for shards each get their
// own observer.
func (s *Store) SetObserver(o Observer) { s.obs = o }

// NewStore builds a store over a partition. If materialize is false, reads
// charge I/O cost but return no objects — the cost-accurate mode used by
// paper-scale scheduling experiments (DESIGN.md §3).
func NewStore(part *Partition, d *disk.Disk, materialize bool) *Store {
	return &Store{part: part, dsk: d, materialize: materialize}
}

// Partition returns the store's partition.
func (s *Store) Partition() *Partition { return s.part }

// WithDisk returns a Store over the same partition, materialization
// mode, and backend that charges I/O to d. The sharded engine rebinds
// the configured store to each shard's own disk this way, so shards
// never contend for one modeled arm. A file-backed store's backend is
// shared by the copy; use Fork to give a shard its own descriptors.
func (s *Store) WithDisk(d *disk.Disk) *Store {
	return &Store{part: s.part, dsk: d, materialize: s.materialize, backend: s.backend}
}

// WithBackend returns a Store serving reads from b instead of the disk
// model (see Backend). The disk keeps accounting statistics — real
// reads record their measured elapsed time — so RunStats.Disk reports
// the same counters either way.
func (s *Store) WithBackend(b Backend) *Store {
	return &Store{part: s.part, dsk: s.dsk, materialize: s.materialize, backend: b}
}

// Backend returns the store's backend, nil for the simulated disk.
func (s *Store) Backend() Backend { return s.backend }

// Fork returns a Store charging I/O to d with its own backend instance:
// the sharding path, where every shard must own both its disk (modeled
// or accounted) and its file descriptors.
func (s *Store) Fork(d *disk.Disk) (*Store, error) {
	ns := s.WithDisk(d)
	if s.backend != nil {
		b, err := s.backend.Fork()
		if err != nil {
			return nil, err
		}
		ns.backend = b
	}
	return ns, nil
}

// Close releases the store's backend (segment file handles); a
// simulated store holds nothing and returns nil.
func (s *Store) Close() error {
	if s.backend != nil {
		return s.backend.Close()
	}
	return nil
}

// Materializing reports whether reads return objects.
func (s *Store) Materializing() bool { return s.materialize }

// ReadBucket performs a full sequential scan of bucket i, charging its
// disk cost — modeled cost on the simulated backend, measured elapsed
// time on a real one. The returned objects are nil in cost-only mode.
func (s *Store) ReadBucket(i int) ([]catalog.Object, time.Duration) {
	if s.backend != nil {
		start := time.Now()
		objs, n, err := s.backend.ReadBucket(i)
		if err != nil {
			if s.obs != nil {
				s.obs.ObserveReadError(ReadScan, err)
			}
			panic(fmt.Sprintf("bucket: backend scan of bucket %d: %v", i, err))
		}
		elapsed := time.Since(start)
		s.dsk.AccountSequential(n, elapsed)
		if s.obs != nil {
			s.obs.ObserveRead(ReadScan, elapsed, n)
		}
		return objs, elapsed
	}
	n := s.part.BucketBytes(i)
	cost := s.dsk.ReadSequential(n)
	if s.obs != nil {
		s.obs.ObserveRead(ReadScan, cost, n)
	}
	if !s.materialize {
		return nil, cost
	}
	return s.part.Materialize(i), cost
}

// Recycle returns to the backend an array s.ReadBucket returned, once
// nothing reads it any more: no cache entry, join or result holds a view
// of it, and none will. The next ReadBucket may overwrite it. A simulated
// store's arrays come from the catalog, so without a backend Recycle does
// nothing.
func (s *Store) Recycle(objs []catalog.Object) {
	if s.backend != nil {
		s.backend.Recycle(objs)
	}
}

// ProbeRanges charges the cost of len(ranges) index probes into bucket i
// (objects are located via the spatial index instead of a scan), one per
// level-14 HTM ID range. In materializing mode it returns objects of the
// bucket, in HTM-curve order, that include every one with an ID in any of
// the ranges, so the caller can evaluate matches: the whole bucket from
// the simulated disk, the overlapping granules from a real backend (valid
// until the next ProbeRanges). The cost charged is the probe cost, not a
// scan.
func (s *Store) ProbeRanges(i int, ranges []htm.Range) ([]catalog.Object, time.Duration) {
	n := len(ranges)
	if s.backend != nil {
		start := time.Now()
		objs, read, err := s.backend.ProbeRanges(i, ranges)
		if err != nil {
			if s.obs != nil {
				s.obs.ObserveReadError(ReadProbe, err)
			}
			panic(fmt.Sprintf("bucket: backend probe of bucket %d: %v", i, err))
		}
		elapsed := time.Since(start)
		s.dsk.AccountProbes(n, elapsed)
		if s.obs != nil {
			s.obs.ObserveRead(ReadProbe, elapsed, read)
		}
		return objs, elapsed
	}
	cost := s.dsk.ReadProbes(n)
	if s.obs != nil {
		s.obs.ObserveRead(ReadProbe, cost, int64(n)*s.dsk.Model().PageSize)
	}
	if !s.materialize {
		return nil, cost
	}
	return s.part.Materialize(i), cost
}
