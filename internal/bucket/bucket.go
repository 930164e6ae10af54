// Package bucket implements the equal-sized bucket partitioning of paper
// §3.1 (Figure 1) and the bucket store that serves them — from the modeled
// disk, or from a Backend doing real I/O. Either way the store has two
// reads, the two arms of the hybrid join (§3.4): Scan, whose bucket the
// RAM cache keeps, and Probe, whose bucket nothing keeps. On a Backend
// both are one Fill of the granules the queue's keys select, handed to the
// join as runs of the array the fill decoded them into, uncopied.
//
// A partition divides a catalog's objects — already linearly ordered along
// the HTM space-filling curve — into consecutive buckets holding exactly
// the same number of objects (the last bucket may be short). Equal object
// counts give uniform I/O cost per bucket, the property the workload
// throughput metric (Eq. 1) relies on: every out-of-core bucket costs the
// same Tb. Each bucket also carries the contiguous level-14 HTM ID span it
// covers, so an incoming cross-match object maps to the buckets its error
// circle reaches by a binary search over the spans.
package bucket

import (
	"fmt"
	"sort"
	"time"

	"liferaft/internal/catalog"
	"liferaft/internal/disk"
	"liferaft/internal/geom"
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
// returned. AppendBucketsReached filters its candidates in place, so the
// admission path allocates no slice per workload object.
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

// AppendBucketsReached appends to dst the buckets a workload object's
// error circle reaches — those whose span holds a trixel of
// htm.CoverCap(c, htm.PaperLevel) — where r is the cover's bounding range
// [MinID, MaxID], and returns the sorted, duplicate-free result. It is the
// one assignment rule of the Query Pre-Processor (paper §3.1): every site
// that queues, counts or groups workload by bucket calls it, so a shard's
// share and the work its engine queues agree exactly.
//
// The buckets r overlaps are the candidates. One whose span holds all of r
// is reached (r's ends are trixels of the cover); any other is kept only if
// the cover has a trixel in its span, found by htm.CapBoundsIn's descent
// over that span alone. A circle straddling a coarse trixel edge has a
// bounding range that runs over every bucket between its two ends; it is
// queued only where it lands. An object whose r lies in one bucket's span,
// nearly every one, takes no descent.
func (p *Partition) AppendBucketsReached(dst []int, r htm.Range, c geom.Cap) []int {
	base := len(dst)
	out := p.AppendBucketsForRanges(dst, []htm.Range{r})
	w := base
	for _, bi := range out[base:] {
		span := p.buckets[bi].Span
		if r.Start < span.Start || r.End > span.End {
			if _, _, ok := htm.CapBoundsIn(c, htm.PaperLevel, span); !ok {
				continue
			}
		}
		out[w] = bi
		w++
	}
	return out[:w]
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
// performs real I/O — a Fill blocks for as long as the hardware takes —
// and the Store accounts the measured elapsed time to the disk's
// statistics instead of charging model cost to the clock. Fill is the one
// read: a Scan fills the Resident the cache keeps, an index probe fills a
// scratch Resident the store resets for every probe and never caches.
// internal/segment provides the file-backed implementation, whose
// granules are the unit a fill reads.
type Backend interface {
	// Fill makes r hold every granule of bucket i that may hold an object
	// with an ID in any of keys. It reads only the granules r lacks, each
	// run of them once, and checks each granule before it decodes it into
	// its slots of r.Objs and marks it resident; a Resident with an empty
	// residency set is a fresh one, sized for bucket i here. In
	// materializing mode it returns the runs of granules the keys select
	// as slices of r.Objs, disjoint and in HTM-curve order: together a
	// subset of the bucket that holds every object with an ID in a key,
	// which the join merges over where it lies. The runs slice is the
	// backend's and valid until its next Fill; the objects are r's. An
	// empty key (Start > End) selects nothing. It returns the data bytes
	// it read, 0 when r held every selected granule already.
	Fill(i int, r *Resident, keys []htm.Range) (runs [][]catalog.Object, bytesRead int64, err error)
	// Fork opens an independent backend over the same data (fresh file
	// descriptors); each shard of a sharded engine gets its own.
	Fork() (Backend, error)
	// Close releases the backend's resources.
	Close() error
}

// Resident is one bucket as the engine's RAM cache holds it, or as an
// index probe reads it into the store's scratch. A segment store fills it
// granule by granule, as services need them: Objs has a slot for every
// object of the bucket, but only the slots of the granules in the
// residency set hold the bucket's objects — an array recycled from
// another bucket keeps that bucket's objects in the rest. The join reads
// the selected granules in their slots (Backend.Fill).
// The simulated store materializes whole buckets and keeps no set.
type Resident struct {
	// Objs is the bucket's slot array in HTM-curve order; nil in
	// cost-only mode, where residency alone matters.
	Objs []catalog.Object
	// Have is the residency set of a segment store's bucket: bit g%64 of
	// word g/64 marks granule g.
	Have []uint64
	// Bytes is the on-disk size of what is resident.
	Bytes int64
}

// Holds reports whether granule g is resident.
func (r *Resident) Holds(g int) bool { return r.Have[g/64]&(1<<(g%64)) != 0 }

// Hold marks granule g resident.
func (r *Resident) Hold(g int) { r.Have[g/64] |= 1 << (g % 64) }

// ReadKind tells a Store observer which access pattern a read used.
type ReadKind string

// Store read kinds.
const (
	// ReadScan: what a Scan service reads — the granules its queue
	// selects that the cached bucket lacks on a segment store, the whole
	// bucket on the simulated disk.
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
// cost for bucket scans and sorted-probe cost for indexed access. It owns
// the engine's disk, and through it the clock the engine runs on and
// charges: core.Config takes both from its Store. The cache layer sits
// above the store (see the engine); every Store read is a real disk
// transfer. Both reads return what the join merges over as runs (see
// Backend.Fill), valid until the store's next read.
type Store struct {
	part        *Partition
	dsk         *disk.Disk
	materialize bool
	// backend, when non-nil, replaces the modeled reads with real I/O
	// (see Backend). Read errors from a backend are fail-stop: a
	// checksum mismatch or vanished file panics rather than silently
	// serving wrong matches. internal/segment/DESIGN-segments.md
	// discusses the trade.
	backend Backend
	// obs, when non-nil, is notified of every read; see Observer.
	obs Observer
	// spare is the Resident Recycle kept, for the next Scan miss to fill.
	spare *Resident
	// probe is what an index probe fills: reset for every probe, never
	// cached, never recycled.
	probe Resident
	whole [][]catalog.Object // the simulated store's one run
}

// SetObserver attaches o to the store (nil detaches). The engine wires
// its per-shard metrics here; stores forked for shards each get their
// own observer.
func (s *Store) SetObserver(o Observer) { s.obs = o }

// NewStore builds a store over a partition. If materialize is false, reads
// charge I/O cost but return no objects — the cost-accurate mode used by
// paper-scale scheduling experiments.
func NewStore(part *Partition, d *disk.Disk, materialize bool) *Store {
	return &Store{part: part, dsk: d, materialize: materialize}
}

// Partition returns the store's partition.
func (s *Store) Partition() *Partition { return s.part }

// Disk returns the disk the store charges its reads to.
func (s *Store) Disk() *disk.Disk { return s.dsk }

// WithBackend returns a Store serving reads from b instead of the disk
// model (see Backend). The disk keeps accounting statistics — real
// reads record their measured elapsed time — so RunStats.Disk reports
// the same counters either way.
func (s *Store) WithBackend(b Backend) *Store {
	return &Store{part: s.part, dsk: s.dsk, materialize: s.materialize, backend: b}
}

// Backend returns the store's backend, nil for the simulated disk.
func (s *Store) Backend() Backend { return s.backend }

// Fork returns a Store over the same partition and materialization mode
// that charges I/O to d and has its own backend instance: the sharding
// path, where every shard owns both its disk (modeled or accounted), so
// shards never contend for one modeled arm, and its file descriptors.
func (s *Store) Fork(d *disk.Disk) (*Store, error) {
	ns := NewStore(s.part, d, s.materialize)
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

// Scan serves a Scan service of bucket i whose queue's probe keys are
// keys, one per queued object (xmatch.WorkloadObject.RangeIn). r is the
// bucket as the cache holds it, nil on a miss; a miss takes the Resident
// Recycle kept, if any, and is accounted as one sequential read of the
// whole bucket on either backend, the model's account RunStats.Disk keeps.
// A segment store then reads only the granules the keys select that r
// lacks (Backend.Fill); a hit that reads is accounted nothing, and only
// the store observer sees the bytes it moved. The simulated store
// materializes the whole bucket on a miss and reads nothing on a hit.
// Scan returns the bucket to cache (r itself on a hit), the runs of it
// the join merges over (the selected granules, or the whole bucket; nil
// in cost-only mode) and the data bytes read.
func (s *Store) Scan(i int, r *Resident, keys []htm.Range) (*Resident, [][]catalog.Object, int64) {
	miss := r == nil
	if miss {
		r, s.spare = s.spare, nil
		if r == nil {
			r = new(Resident)
		}
		r.Have, r.Bytes = r.Have[:0], 0
	}
	if s.backend == nil {
		if !miss {
			return r, s.oneRun(r.Objs), 0
		}
		r.Objs, r.Bytes = nil, s.part.BucketBytes(i)
		cost := s.dsk.ReadSequential(r.Bytes)
		if s.obs != nil {
			s.obs.ObserveRead(ReadScan, cost, r.Bytes)
		}
		if s.materialize {
			r.Objs = s.part.Materialize(i)
		}
		return r, s.oneRun(r.Objs), r.Bytes
	}
	runs, n, elapsed := s.fill(ReadScan, i, r, keys)
	r.Bytes += n
	if miss {
		s.dsk.AccountSequential(s.part.BucketBytes(i), elapsed)
	}
	if n > 0 && s.obs != nil {
		s.obs.ObserveRead(ReadScan, elapsed, n)
	}
	return r, runs, n
}

// oneRun returns a whole bucket as the simulated store's one run.
func (s *Store) oneRun(objs []catalog.Object) [][]catalog.Object {
	if objs == nil {
		return nil
	}
	s.whole = append(s.whole[:0], objs)
	return s.whole
}

// Recycle hands back a Resident s.Scan returned, once nothing reads it
// any more: no cache entry, join or result holds a view of it, and none
// will. The store keeps the one with the largest array, and its next Scan
// miss overwrites that array and residency set. A simulated store's arrays
// come from the catalog: it reuses the Resident, never the array.
func (s *Store) Recycle(r *Resident) {
	if s.spare == nil || cap(r.Objs) > cap(s.spare.Objs) {
		s.spare = r
	}
}

// Probe serves an index probe service of bucket i: len(keys) probes, one
// per queued object, keyed as Scan keys them, accounted as probes rather
// than a scan. A segment store fills the granules the keys select into a
// scratch Resident it resets for every probe and never caches, so a probe
// reads what a Scan miss would and keeps none of it, and returns the runs
// of the selected granules as Scan does. The simulated store charges the
// model's sorted-probe cost and returns the whole bucket as one run.
// Probe returns the runs the join merges over (nil in cost-only mode) and
// the data bytes read — on the simulated store, a page per probe.
func (s *Store) Probe(i int, keys []htm.Range) ([][]catalog.Object, int64) {
	if s.backend == nil {
		n := int64(len(keys)) * s.dsk.Model().PageSize
		cost := s.dsk.ReadProbes(len(keys))
		if s.obs != nil {
			s.obs.ObserveRead(ReadProbe, cost, n)
		}
		if !s.materialize {
			return nil, n
		}
		return s.oneRun(s.part.Materialize(i)), n
	}
	s.probe.Have = s.probe.Have[:0]
	runs, n, elapsed := s.fill(ReadProbe, i, &s.probe, keys)
	s.dsk.AccountProbes(len(keys), elapsed)
	if s.obs != nil {
		s.obs.ObserveRead(ReadProbe, elapsed, n)
	}
	return runs, n
}

// fill is one Backend.Fill, timed. A backend error is fail-stop: the
// observer hears of it, then fill panics.
func (s *Store) fill(kind ReadKind, i int, r *Resident, keys []htm.Range) ([][]catalog.Object, int64, time.Duration) {
	start := time.Now()
	runs, n, err := s.backend.Fill(i, r, keys)
	if err != nil {
		if s.obs != nil {
			s.obs.ObserveReadError(kind, err)
		}
		panic(fmt.Sprintf("bucket: backend %s of bucket %d: %v", kind, i, err))
	}
	return runs, n, time.Since(start)
}
