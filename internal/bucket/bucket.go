// Package bucket implements the equal-sized bucket partitioning of paper
// §3.1 (Figure 1) and the bucket store that serves them — from the modeled
// disk, or from a Backend doing real I/O — through one call, Store.Serve,
// which owns the hybrid join's scan-or-probe choice (§3.4). The simulated
// store reads whole buckets, so the choice prices its disk: a sparse queue
// on an uncached bucket is a run of index probes that keeps nothing, any
// other service a scan of the bucket the RAM cache keeps. On a Backend
// every service is a scan-kind fill: one Fill of the granules the queue's
// keys select into the bucket the cache keeps, handed to the join as runs
// of the array the fill decoded them into, uncopied. Index probes are the
// simulated store's alone.
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
	"math/bits"
	"sort"
	"time"

	"liferaft/internal/catalog"
	"liferaft/internal/disk"
	"liferaft/internal/geom"
	"liferaft/internal/htm"
	"liferaft/internal/xmatch"
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
// read: every service of a bucket fills the Resident the cache keeps, and
// is a scan-kind read, whatever its queue's length (Store.Serve).
// internal/segment provides the file-backed implementation, whose
// granules are the unit a fill reads and the cache is weighed in.
type Backend interface {
	// Fill makes r hold every granule of bucket i that may hold an object
	// with an ID in any of keys. It reads only the granules r lacks, each
	// run of them once, and checks every one of them before r changes at
	// all: a failed Fill leaves r as it was. It then decodes them into
	// r.Objs and marks them resident; a Resident with an empty residency
	// set is a fresh one, sized for bucket i here. In materializing mode
	// it returns the runs of granules the keys select as slices of r.Objs,
	// disjoint and in HTM-curve order: together a subset of the bucket
	// that holds every object with an ID in a key, which the join merges
	// over where it lies. The runs slice is the backend's and valid until
	// its next Fill; the objects are r's, valid until r's next Fill. An
	// empty key (Start > End) selects nothing. It returns the data bytes
	// it read, 0 when r held every selected granule already.
	Fill(i int, r *Resident, keys []htm.Range) (runs [][]catalog.Object, bytesRead int64, err error)
	// GranuleObjects returns how many objects one granule holds; only a
	// bucket's last granule may hold fewer.
	GranuleObjects() int
	// Fork opens an independent backend over the same data (fresh file
	// descriptors); each shard of a sharded engine gets its own.
	Fork() (Backend, error)
	// Close releases the backend's resources.
	Close() error
}

// Resident is one bucket as the engine's RAM cache holds it. A segment
// store fills it granule by granule, as services need them,
// and Objs holds the resident granules' objects and nothing else, compact:
// granule g's start at Rank(g) granules in, so a run of resident granules
// is one slice of it, which the join reads in place (Backend.Fill). The
// cache weighs it in granules (Store.Weight). The simulated store
// materializes whole buckets and keeps no set.
type Resident struct {
	// Objs is the resident granules' objects in HTM-curve order; nil in
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

// Rank returns how many granules below g are resident: where granule g's
// objects start in Objs, in granules.
func (r *Resident) Rank(g int) int {
	n := 0
	for _, w := range r.Have[:g/64] {
		n += bits.OnesCount64(w)
	}
	if g%64 != 0 {
		n += bits.OnesCount64(r.Have[g/64] << (64 - g%64))
	}
	return n
}

// Granules returns how many granules are resident.
func (r *Resident) Granules() int { return r.Rank(64 * len(r.Have)) }

// ReadKind tells a Store observer which access pattern a read used.
type ReadKind string

// Store read kinds.
const (
	// ReadScan: what a scan service reads — the granules its queue
	// selects that the cached bucket lacks on a segment store, the whole
	// bucket on the simulated disk. Every service of a segment store is
	// one.
	ReadScan ReadKind = "scan"
	// ReadProbe: the simulated store's index probes into a bucket's
	// block run, one sorted probe per queued object.
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

// nopObserver is the observer of a Store nobody observes.
type nopObserver struct{}

func (nopObserver) ObserveRead(ReadKind, time.Duration, int64) {}
func (nopObserver) ObserveReadError(ReadKind, error)           {}

// Store serves buckets (Serve) from the modeled disk, charging
// sequential-scan cost for bucket scans and sorted-probe cost for indexed
// access, or from a Backend, whose every service is a scan-kind fill. It
// owns the engine's disk, and through it the clock the engine runs on and
// charges: core.Config takes both from its Store. The cache layer sits
// above the store (see the engine); every Store read is a real disk
// transfer. A service returns what the join merges over as runs (see
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
	// obs is notified of every read (see Observer): the engine's, or a
	// no-op one.
	obs Observer
	// spare is the Resident Recycle kept, for the next miss to fill.
	spare *Resident
	whole [][]catalog.Object // the simulated store's one run
}

// SetObserver attaches o to the store (nil detaches it, leaving a no-op
// observer). The engine wires its per-shard metrics here; stores forked
// for shards each get their own observer.
func (s *Store) SetObserver(o Observer) {
	if o == nil {
		o = nopObserver{}
	}
	s.obs = o
}

// NewStore builds a store over a partition. If materialize is false, reads
// charge I/O cost but return no objects — the cost-accurate mode used by
// paper-scale scheduling experiments.
func NewStore(part *Partition, d *disk.Disk, materialize bool) *Store {
	return &Store{part: part, dsk: d, materialize: materialize, obs: nopObserver{}}
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
	ns := NewStore(s.part, s.dsk, s.materialize)
	ns.backend = b
	return ns
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

// Serve serves one service of bucket i whose queue's probe keys are keys,
// one per queued object (xmatch.WorkloadObject.RangeIn), and makes the
// hybrid join's choice (§3.4) for it. r is the bucket as the cache holds
// it, nil on a miss; a miss takes the Resident Recycle kept, if any.
//
// The simulated store reads whole buckets, so the choice prices its disk:
// a miss whose queue is under threshold times the bucket's objects
// (xmatch.ChooseStrategy) is len(keys) sorted index probes, a page each,
// that keep nothing (a nil Resident). Any other miss is one sequential
// read of the whole bucket, materialized; a hit reads nothing.
//
// A segment store reads only the granules the keys select that r lacks
// (Backend.Fill), so a probe would read what a scan reads: it always
// fills, and ignores threshold. A miss is accounted as one sequential
// read of the whole bucket, the model's account RunStats.Disk keeps; a
// hit that reads is accounted nothing, and only the store observer sees
// the bytes it moved. A backend error is fail-stop: the observer hears of
// it, then Serve panics.
//
// Serve returns the bucket to cache (r itself on a hit, nil after a
// probe), the runs of it the join merges over (the selected granules, or
// the whole bucket; nil in cost-only mode), the data bytes read, and
// which read it was: ReadProbe only for the simulated store's probes.
func (s *Store) Serve(i int, r *Resident, keys []htm.Range, threshold float64) (*Resident, [][]catalog.Object, int64, ReadKind) {
	miss := r == nil
	if s.backend != nil {
		if miss {
			r = s.take()
		}
		start := time.Now()
		runs, n, err := s.backend.Fill(i, r, keys)
		if err != nil {
			s.obs.ObserveReadError(ReadScan, err)
			panic(fmt.Sprintf("bucket: backend fill of bucket %d: %v", i, err))
		}
		elapsed := time.Since(start)
		r.Bytes += n
		if miss {
			s.dsk.AccountSequential(s.part.BucketBytes(i), elapsed)
		}
		if n > 0 {
			s.obs.ObserveRead(ReadScan, elapsed, n)
		}
		return r, runs, n, ReadScan
	}
	if !miss {
		return r, s.oneRun(r.Objs), 0, ReadScan
	}
	if xmatch.ChooseStrategy(len(keys), s.part.Bucket(i).Count(), threshold, false) == xmatch.Index {
		n := int64(len(keys)) * s.dsk.Model().PageSize
		cost := s.dsk.ReadProbes(len(keys))
		s.obs.ObserveRead(ReadProbe, cost, n)
		if !s.materialize {
			return nil, nil, n, ReadProbe
		}
		return nil, s.oneRun(s.part.Materialize(i)), n, ReadProbe
	}
	r = s.take()
	r.Objs, r.Bytes = nil, s.part.BucketBytes(i)
	cost := s.dsk.ReadSequential(r.Bytes)
	s.obs.ObserveRead(ReadScan, cost, r.Bytes)
	if s.materialize {
		r.Objs = s.part.Materialize(i)
	}
	return r, s.oneRun(r.Objs), r.Bytes, ReadScan
}

// take returns the Resident Recycle kept, or a new one, emptied for a
// miss to fill.
func (s *Store) take() *Resident {
	r := s.spare
	s.spare = nil
	if r == nil {
		r = new(Resident)
	}
	r.Have, r.Bytes = r.Have[:0], 0
	return r
}

// oneRun returns a whole bucket as the simulated store's one run.
func (s *Store) oneRun(objs []catalog.Object) [][]catalog.Object {
	if objs == nil {
		return nil
	}
	s.whole = append(s.whole[:0], objs)
	return s.whole
}

// Recycle hands back a Resident s.Serve returned, once nothing
// reads it any more: no cache entry, join or result holds a view of it,
// and none will. The store keeps the one with the largest array, and its
// next miss overwrites that array and residency set. A simulated store's
// arrays come from the catalog: it reuses the Resident, never the array.
func (s *Store) Recycle(r *Resident) {
	if s.spare == nil || cap(r.Objs) > cap(s.spare.Objs) {
		s.spare = r
	}
}

// BucketGranules returns the granules a whole bucket holds, the unit the
// engine budgets its RAM cache in: the cache holds Config.CacheBuckets
// times this many. On a segment store that is a full bucket's granule
// count. The simulated store reads and keeps whole buckets, so there a
// bucket is one granule.
func (s *Store) BucketGranules() int {
	if s.backend == nil {
		return 1
	}
	per := s.backend.GranuleObjects()
	return (s.part.PerBucket() + per - 1) / per
}

// Weight returns what r, a bucket this store returned, weighs in the
// cache's budget: on a segment store its resident granules, or, if more,
// the granules its array has room for, so the budget bounds decoded memory
// too; on the simulated store a whole bucket, BucketGranules.
func (s *Store) Weight(r *Resident) int {
	if s.backend == nil {
		return 1
	}
	per := s.backend.GranuleObjects()
	return max(r.Granules(), (cap(r.Objs)+per-1)/per)
}
