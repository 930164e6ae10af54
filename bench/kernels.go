package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"liferaft/internal/bucket"
	"liferaft/internal/catalog"
	"liferaft/internal/core"
	"liferaft/internal/disk"
	"liferaft/internal/federation"
	"liferaft/internal/geom"
	"liferaft/internal/htm"
	"liferaft/internal/segment"
	"liferaft/internal/simclock"
	"liferaft/internal/xmatch"
)

// Kernels time one layer's public function on a single goroutine, after the
// load has stopped, on inputs recorded from the traced phase. They give the
// unit costs that the span table's times are made of.

// kernelCost is one kernel's mean cost per call.
type kernelCost struct {
	ns     float64
	allocs float64
	bytes  float64
}

// timeKernel calls fn until budget has passed (at least three times) and
// returns the mean cost per call. Nothing else allocates meanwhile: the
// clients have drained and the engines are idle.
func timeKernel(budget time.Duration, fn func()) kernelCost {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	n := 0
	for n < 3 || time.Since(start) < budget {
		fn()
		n++
	}
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	return kernelCost{
		ns:     float64(el) / float64(n),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n),
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
	}
}

func toCatalog(o federation.Object) catalog.Object {
	return catalog.Object{ID: o.ID, HTMID: htm.ID(o.HTMID), Pos: geom.Vec3{X: o.X, Y: o.Y, Z: o.Z}, Mag: o.Mag}
}

func workloadObjects(id uint64, objs []federation.Object) []xmatch.WorkloadObject {
	radius := geom.ArcsecToRad(matchRadiusArcsec)
	wos := make([]xmatch.WorkloadObject, len(objs))
	for i, o := range objs {
		wos[i] = xmatch.NewWorkloadObject(id, toCatalog(o), radius)
	}
	return wos
}

// runKernels adds the kernel metrics to got.
func runKernels(cfg runConfig, st *stack, got map[string]float64) error {
	jobs := st.probe.jobs
	if len(jobs) == 0 {
		return fmt.Errorf("traced phase recorded no cross-match job")
	}
	radius := geom.ArcsecToRad(matchRadiusArcsec)

	// xmatch.NewWorkloadObject, per shipped object.
	var shipped []catalog.Object
	for _, j := range jobs {
		for _, o := range j {
			if len(shipped) < 2000 {
				shipped = append(shipped, toCatalog(o))
			}
		}
	}
	var sink xmatch.WorkloadObject
	c := timeKernel(cfg.kernelBudget, func() {
		for _, o := range shipped {
			sink = xmatch.NewWorkloadObject(1, o, radius)
		}
	})
	_ = sink
	got["xmatch.workload_object_ns"] = c.ns / float64(len(shipped))
	got["xmatch.workload_object_allocs"] = c.allocs / float64(len(shipped))

	// The store's two reads, over a seeded sample of buckets.
	set, err := segment.OpenSet(st.dir)
	if err != nil {
		return err
	}
	defer set.Close()
	backend := segment.NewBackend(set, true)
	rng := rand.New(rand.NewPCG(cfg.seed, 0x6b65726e656c73)) // "kernels"
	sample := make([]int, 16)
	for i := range sample {
		sample[i] = rng.IntN(set.NumBuckets())
	}
	var kerr error
	var readBytes int64
	next := 0
	c = timeKernel(cfg.kernelBudget, func() {
		if _, _, err := backend.ReadBucket(sample[next%len(sample)]); err != nil {
			kerr = err
		}
		next++
	})
	got["segment.read_bucket_us"] = c.ns / 1e3
	next = 0
	c = timeKernel(cfg.kernelBudget, func() {
		_, n, err := backend.Probe(sample[next%len(sample)], 8)
		if err != nil {
			kerr = err
		}
		readBytes = n
		next++
	})
	if kerr != nil {
		return kerr
	}
	got["segment.probe_us"] = c.ns / 1e3
	got["segment.probe_read_kb"] = float64(readBytes) / 1024
	got["segment.probe_alloc_kb"] = c.bytes / 1024

	// The joins, at the median job's shape: its workload objects against
	// the bucket that receives most of them.
	part, err := bucket.NewPartition(st.sdss, cfg.fx.perBucket, cfg.fx.objectBytes)
	if err != nil {
		return err
	}
	bySize := append([][]federation.Object(nil), jobs...)
	sort.Slice(bySize, func(i, j int) bool { return len(bySize[i]) < len(bySize[j]) })
	perBucket := make(map[int][]xmatch.WorkloadObject)
	for _, wo := range workloadObjects(1, bySize[len(bySize)/2]) {
		for _, bi := range part.AppendBucketsForRanges(nil, wo.Ranges()) {
			perBucket[bi] = append(perBucket[bi], wo)
		}
	}
	best := -1
	for bi, q := range perBucket {
		if best < 0 || len(q) > len(perBucket[best]) || len(q) == len(perBucket[best]) && bi < best {
			best = bi
		}
	}
	got["xmatch.merge_join_us"], got["xmatch.index_join_us"], got["xmatch.join_allocs"] = 0, 0, 0
	if best >= 0 {
		objs, _, err := set.ReadBucket(best)
		if err != nil {
			return err
		}
		queue := perBucket[best]
		var pairs []xmatch.Pair
		c = timeKernel(cfg.kernelBudget, func() { pairs = xmatch.MergeJoin(objs, queue, nil) })
		got["xmatch.merge_join_us"] = c.ns / 1e3
		got["xmatch.join_allocs"] = c.allocs
		c = timeKernel(cfg.kernelBudget, func() { pairs = xmatch.IndexJoin(objs, queue, nil) })
		got["xmatch.index_join_us"] = c.ns / 1e3
		_ = pairs
	}

	// The modeled Tm charge, which the real clock sleeps.
	const matchN = 50
	d := disk.New(disk.SkyQuery(), simclock.Real{})
	c = timeKernel(cfg.kernelBudget, func() { d.MatchObjects(matchN) })
	got["disk.match_sleep_us_per_object"] = c.ns / 1e3 / matchN
	got["disk.match_sleep_ms_per_query"] = got["disk.match_sleep_us_per_object"] * got["engine.assignments"] / 1e3

	// The hop: an empty round trip, and the gob size of recorded hops.
	got["fed.rpc_roundtrip_us"], got["fed.wire_kb_per_hop"] = 0, 0
	if st.fedClient != nil {
		c = timeKernel(cfg.kernelBudget, func() {
			if _, err := st.fedClient.Archive(); err != nil {
				kerr = err
			}
		})
		if kerr != nil {
			return kerr
		}
		got["fed.rpc_roundtrip_us"] = c.ns / 1e3
		var wire bytes.Buffer
		enc := gob.NewEncoder(&wire)
		for _, h := range st.probe.hops {
			if err := enc.Encode(h.req); err != nil {
				return err
			}
			if err := enc.Encode(h.resp); err != nil {
				return err
			}
		}
		if n := len(st.probe.hops); n > 0 {
			got["fed.wire_kb_per_hop"] = float64(wire.Len()) / 1024 / float64(n)
		}
	}

	qps, err := directQPS(cfg, st, part, jobs)
	if err != nil {
		return err
	}
	got["engine.direct_qps"] = qps
	return nil
}

// directQPS replays the recorded jobs into a second core.Live over the same
// segment store — same shards, cache and alpha, materialization on — with as
// many closed-loop submitters as the serving layer lets into the engine, and
// nothing else of the stack: no gateway, portal or serving layer.
func directQPS(cfg runConfig, st *stack, part *bucket.Partition, jobs [][]federation.Object) (float64, error) {
	ecfg, err := core.NewFileBacked(part, cfg.fx.alpha, true, st.dir)
	if err != nil {
		return 0, err
	}
	defer ecfg.Store.Close()
	ecfg.CacheBuckets = cfg.fx.cache
	ecfg.Shards = cfg.fx.shards
	eng, err := core.NewLive(ecfg)
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	prepared := make([][]xmatch.WorkloadObject, len(jobs))
	for i, j := range jobs {
		prepared[i] = workloadObjects(0, j)
	}
	const submitters = 4 // server.Config.MaxInFlight default
	var nextID, completed atomic.Uint64
	var failed atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < cfg.directBudget {
				id := nextID.Add(1)
				src := prepared[int(id)%len(prepared)]
				wos := make([]xmatch.WorkloadObject, len(src))
				for i, wo := range src {
					wo.QueryID = id
					wos[i] = wo
				}
				ch, err := eng.SubmitCtx(context.Background(), core.Job{ID: id, Objects: wos})
				if err != nil {
					failed.Store(true)
					return
				}
				if _, ok := <-ch; !ok {
					failed.Store(true)
					return
				}
				completed.Add(1)
			}
		}()
	}
	wg.Wait()
	if failed.Load() {
		return 0, fmt.Errorf("direct engine replay: a job was refused or dropped")
	}
	return float64(completed.Load()) / time.Since(start).Seconds(), nil
}
