package main

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"liferaft/internal/metric"
)

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank method: the smallest value with at least p % of the sample at
// or below it. xs need not be sorted; an empty sample yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// procDelta is the process-wide counters a stretch of the run consumed.
type procDelta struct {
	cpu       time.Duration // user + system
	mallocs   uint64
	allocated uint64
	gcCount   uint32
	gcPause   time.Duration
	readChars uint64 // /proc/self/io rchar: bytes asked of read-like syscalls
	readCalls uint64 // /proc/self/io syscr
}

func (d *procDelta) add(o procDelta) {
	d.cpu += o.cpu
	d.mallocs += o.mallocs
	d.allocated += o.allocated
	d.gcCount += o.gcCount
	d.gcPause += o.gcPause
	d.readChars += o.readChars
	d.readCalls += o.readCalls
}

// procSnapshot is the same counters since process start, read at an instant.
type procSnapshot struct {
	at time.Time
	procDelta
}

// sub returns what the process consumed between an earlier snapshot and s.
func (s procSnapshot) sub(earlier procSnapshot) procDelta {
	return procDelta{
		cpu:       s.cpu - earlier.cpu,
		mallocs:   s.mallocs - earlier.mallocs,
		allocated: s.allocated - earlier.allocated,
		gcCount:   s.gcCount - earlier.gcCount,
		gcPause:   s.gcPause - earlier.gcPause,
		readChars: s.readChars - earlier.readChars,
		readCalls: s.readCalls - earlier.readCalls,
	}
}

func takeProcSnapshot() procSnapshot {
	var s procSnapshot
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.mallocs, s.allocated = m.Mallocs, m.TotalAlloc
	s.gcCount, s.gcPause = m.NumGC, time.Duration(m.PauseTotalNs)
	io := procFields("/proc/self/io")
	s.readChars, s.readCalls = io["rchar:"], io["syscr:"]
	s.at = time.Now()
	return s
}

// procFields reads the "key value [unit]" lines of a /proc file; a file that
// cannot be read yields no fields.
func procFields(path string) map[string]uint64 {
	out := make(map[string]uint64)
	data, err := os.ReadFile(path)
	if err != nil {
		return out
	}
	for _, line := range strings.Split(string(data), "\n") {
		if fields := strings.Fields(line); len(fields) >= 2 {
			if v, err := strconv.ParseUint(fields[1], 10, 64); err == nil {
				out[fields[0]] = v
			}
		}
	}
	return out
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 { return float64(procFields("/proc/self/status")["VmHWM:"]) / 1024 }

// regSnapshot is one Registry.WriteText rendering parsed into series, or the
// difference of two.
type regSnapshot map[string]float64

// sub returns the per-series growth since an earlier snapshot.
func (s regSnapshot) sub(earlier regSnapshot) regSnapshot {
	out := make(regSnapshot, len(s))
	for k, v := range s {
		out[k] = v - earlier[k]
	}
	return out
}

func takeRegSnapshot(reg *metric.Registry) regSnapshot {
	var b bytes.Buffer
	reg.WriteText(&b) // writes to a bytes.Buffer cannot fail
	out := make(regSnapshot)
	sc := bufio.NewScanner(&b)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		// "name{labels} value [# exemplar]"; label values here (tenant and
		// shard names) hold no spaces.
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// sum adds every series of family `name` whose label set contains all of
// `labels` (each written as key="value").
func (s regSnapshot) sum(name string, labels ...string) float64 {
	t := 0.0
series:
	for k, v := range s {
		fam, rest, _ := strings.Cut(k, "{")
		if fam != name {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				continue series
			}
		}
		t += v
	}
	return t
}

// meanSeconds is a histogram family's mean observation in seconds (0
// without observations).
func (s regSnapshot) meanSeconds(name string, labels ...string) float64 {
	n := s.sum(name+"_count", labels...)
	if n == 0 {
		return 0
	}
	return s.sum(name+"_sum", labels...) / n
}
