package metric

import (
	"os"
	"runtime"
	"runtime/debug"
	"sync"
)

// RegisterProcess adds the process-health series to r: what the Go runtime
// has allocated and collected, how many goroutines and file descriptors the
// process holds, and which build it is. Everything is read when r is
// scraped — one runtime.ReadMemStats per scrape, nothing per query — so the
// series cost a serving process nothing between scrapes. The counters are
// the runtime's own cumulative figures: rate(liferaft_process_alloc_bytes_total)
// over rate(liferaft_engine_queries_total) is the bytes a live daemon
// allocates per query, the production twin of the benchmark's
// alloc_kb_per_query.
func RegisterProcess(r *Registry) {
	p := &process{
		allocBytes: r.NewCounter("liferaft_process_alloc_bytes_total",
			"Bytes of heap objects allocated since the process started (runtime.MemStats.TotalAlloc), read at scrape time."),
		mallocs: r.NewCounter("liferaft_process_mallocs_total",
			"Heap objects allocated since the process started (runtime.MemStats.Mallocs), read at scrape time."),
		heapInuse: r.NewGauge("liferaft_process_heap_inuse_bytes",
			"Bytes in in-use heap spans (runtime.MemStats.HeapInuse) at scrape time."),
		gcCycles: r.NewCounter("liferaft_process_gc_cycles_total",
			"Completed garbage-collection cycles (runtime.MemStats.NumGC), read at scrape time."),
		gcPause: r.NewCounter("liferaft_process_gc_pause_seconds_total",
			"Cumulative stop-the-world GC pause time (runtime.MemStats.PauseTotalNs), read at scrape time."),
		goroutines: r.NewGauge("liferaft_process_goroutines",
			"Goroutines that exist at scrape time (runtime.NumGoroutine)."),
		openFDs: r.NewGauge("liferaft_process_open_fds",
			"Open file descriptors at scrape time (entries of /proc/self/fd; 0 where that cannot be read)."),
	}
	revision := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				revision = s.Value
			}
		}
	}
	// One series, fixed when the process starts: the labels are the build's,
	// not a caller's.
	r.NewGaugeVec("liferaft_build_info",
		"Always 1; the labels name the Go toolchain and the VCS revision the binary was built from.",
		[]string{"goversion", "revision"}, VecOpts{MaxSeries: 1}).With(runtime.Version(), revision).Set(1)
	r.OnGather(p.gather)
}

// process holds the handles RegisterProcess resolved and the cumulative
// figures as of the last scrape: a Counter only adds, so each scrape adds
// what the runtime's own totals have moved by since the one before.
type process struct {
	allocBytes, mallocs, gcCycles, gcPause *Counter
	heapInuse, goroutines, openFDs         *Gauge

	mu                                sync.Mutex // scrapes may overlap
	lastAlloc, lastMallocs, lastPause uint64
	lastGC                            uint32
}

func (p *process) gather() {
	p.goroutines.Set(float64(runtime.NumGoroutine()))
	if fds, err := os.ReadDir("/proc/self/fd"); err == nil {
		// The listing itself holds one descriptor open while it is read.
		p.openFDs.Set(float64(len(fds) - 1))
	}
	// Snapshot and deltas under one lock, so overlapping scrapes add their
	// deltas in the order they read the runtime.
	p.mu.Lock()
	defer p.mu.Unlock()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.heapInuse.Set(float64(ms.HeapInuse))
	p.allocBytes.Add(float64(ms.TotalAlloc - p.lastAlloc))
	p.mallocs.Add(float64(ms.Mallocs - p.lastMallocs))
	p.gcCycles.Add(float64(ms.NumGC - p.lastGC))
	p.gcPause.Add(float64(ms.PauseTotalNs-p.lastPause) / 1e9)
	p.lastAlloc, p.lastMallocs, p.lastGC, p.lastPause = ms.TotalAlloc, ms.Mallocs, ms.NumGC, ms.PauseTotalNs
}
