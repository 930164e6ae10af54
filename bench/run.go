package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// runConfig is one invocation: one workload, one seed, traced or not.
type runConfig struct {
	workload workloadSpec
	seed     uint64
	window   time.Duration // timed window
	warmup   time.Duration // untimed lead-in of the same stream
	traced   bool
	fx       fixture
	workDir  string // scratch for segment stores and the trace file
	log      io.Writer
	// Traced runs: how long each kernel loops, and how long the engine-only
	// replay behind engine.direct_qps runs.
	kernelBudget time.Duration
	directBudget time.Duration
}

// runResult is what the last output line reports.
type runResult struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metricValue
}

// A traced run cuts its window into slices and records spans in two of
// every three: untraced, traced, traced, untraced, ... Both kinds of slice
// then see the same cache state and the same part of the query sequence, so
// the qps difference between them is the tracing overhead and not drift.
const (
	phaseSlice  = time.Second
	tracedEvery = 3 // slice k is untraced when k % tracedEvery == 0
)

// phase is one stretch of the timed window. Its bounds are the instants the
// snapshots at its two ends were actually taken.
type phase struct {
	win    window
	traced bool
	proc   procDelta
	reg    regSnapshot // registry delta; traced runs only
}

// phaseSet is the phases of one kind taken together.
type phaseSet []*phase

func (ps phaseSet) contains(d time.Duration) bool {
	for _, p := range ps {
		if p.win.contains(d) {
			return true
		}
	}
	return false
}

func (ps phaseSet) seconds() float64 {
	t := 0.0
	for _, p := range ps {
		t += (p.win.to - p.win.from).Seconds()
	}
	return t
}

func (ps phaseSet) proc() procDelta {
	var t procDelta
	for _, p := range ps {
		t.add(p.proc)
	}
	return t
}

func (ps phaseSet) reg() regSnapshot {
	t := make(regSnapshot)
	for _, p := range ps {
		for k, v := range p.reg {
			t[k] += v
		}
	}
	return t
}

// planPhases lays the window out from the end of the warm-up: one phase for
// an untraced run, alternating slices for a traced one.
func planPhases(cfg runConfig) []*phase {
	if !cfg.traced {
		return []*phase{{win: window{cfg.warmup, cfg.warmup + cfg.window}}}
	}
	var out []*phase
	for k, from := 0, cfg.warmup; from < cfg.warmup+cfg.window; k, from = k+1, from+phaseSlice {
		to := min(from+phaseSlice, cfg.warmup+cfg.window)
		out = append(out, &phase{win: window{from, to}, traced: k%tracedEvery != 0})
	}
	return out
}

func runBenchmark(cfg runConfig) (runResult, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return runResult{}, err
	}
	// One set-up per run. Setting up three times and reporting the median
	// was tried: 1.2 GB of fsync'd writes per run sent the sandbox's disk
	// into minutes-long throttling (set-up went from 3 s to 14 s), which
	// moved setup_s far more than the median steadied it.
	t0 := time.Now()
	st, err := buildStack(cfg.fx, cfg.workload, cfg.workDir, cfg.traced)
	if err != nil {
		return runResult{}, err
	}
	setupSecs := time.Since(t0).Seconds()
	fmt.Fprintf(cfg.log, "set-up: %.3f s\n", setupSecs)
	defer st.Close()

	phases := planPhases(cfg)
	end := phases[len(phases)-1].win.to
	r := &runner{st: st, oracleWin: window{cfg.warmup, end}}
	for i, spec := range cfg.workload.streams {
		r.streams = append(r.streams, newStreamRun(cfg.seed, i, spec))
	}
	done := make(chan struct{})
	r.epoch = time.Now()
	go func() {
		defer close(done)
		r.run(cfg.seed, end)
	}()

	// Walk the phase boundaries: snapshot, flip the probe, sleep.
	snap := func(off time.Duration) (procSnapshot, regSnapshot) {
		time.Sleep(time.Until(r.epoch.Add(off)))
		var reg regSnapshot
		if cfg.traced {
			reg = takeRegSnapshot(st.reg)
		}
		return takeProcSnapshot(), reg
	}
	p0, reg0 := snap(phases[0].win.from)
	for _, ph := range phases {
		st.probe.set(ph.traced)
		p1, reg1 := snap(ph.win.to)
		ph.win = window{p0.at.Sub(r.epoch), p1.at.Sub(r.epoch)}
		ph.proc = p1.sub(p0)
		if cfg.traced {
			ph.reg = reg1.sub(reg0)
		}
		p0, reg0 = p1, reg1
	}
	st.probe.set(false)
	<-done

	var untraced, traced phaseSet
	for _, ph := range phases {
		if ph.traced {
			traced = append(traced, ph)
		} else {
			untraced = append(untraced, ph)
		}
	}

	checked, mismatches, msgs := runOracle(st, r.streams)
	for _, m := range msgs {
		fmt.Fprintf(cfg.log, "ORACLE MISMATCH %s\n", m)
	}
	fmt.Fprintf(cfg.log, "oracle: %d responses fully decoded, %d mismatches\n", checked, mismatches)

	res := runResult{}
	malformed := 0
	for _, sr := range r.streams {
		for _, s := range sr.samples {
			if !untraced.contains(s.done) && !traced.contains(s.done) {
				continue
			}
			res.attempted++
			if !s.ok {
				res.failed++
			}
		}
		malformed += sr.malformed
		for _, f := range sr.failures {
			fmt.Fprintf(cfg.log, "FAILED %s\n", f)
		}
	}
	res.failed += mismatches
	res.correct = mismatches == 0 && malformed == 0
	if res.attempted == 0 {
		return res, fmt.Errorf("no request completed inside the window")
	}

	if !cfg.traced {
		got := endToEndMetrics(r.streams, untraced)
		got["setup_s"] = setupSecs
		for _, sr := range r.streams {
			lat := latencies(sr, untraced)
			fmt.Fprintf(cfg.log, "stream %-11s %5d OK samples  p50 %.1f  p90 %.1f  p95 %.1f  p99 %.1f ms",
				sr.spec.name, len(lat), percentile(lat, 50), percentile(lat, 90), percentile(lat, 95), percentile(lat, 99))
			if sr.spec.kind == openLoop {
				fmt.Fprintf(cfg.log, "  generator late p50 %.2f  p99 %.2f ms", percentile(lateness(sr, untraced), 50), percentile(lateness(sr, untraced), 99))
			}
			fmt.Fprintln(cfg.log)
		}
		res.metrics = valuesFor(endToEnd, got)
		return res, nil
	}

	got, traces := perLayerMetrics(cfg, r.streams, untraced, traced)
	if err := runKernels(cfg, st, got); err != nil {
		return res, err
	}
	path := filepath.Join(cfg.workDir, "trace-"+cfg.workload.name+".jsonl")
	if err := writeTraceFile(path, traces); err != nil {
		return res, err
	}
	fmt.Fprintf(cfg.log, "wrote %d traces to %s\n", len(traces), path)
	res.metrics = valuesFor(perLayer, got)
	return res, nil
}

// latencies returns the OK latencies of a stream inside the phases, in
// milliseconds.
func latencies(sr *streamRun, in phaseSet) []float64 {
	var out []float64
	for _, s := range sr.samples {
		if s.ok && in.contains(s.done) {
			out = append(out, ms(s.latency))
		}
	}
	return out
}

// lateness returns how late an open-loop stream's generator sent each request
// completed inside the phases, in milliseconds.
func lateness(sr *streamRun, in phaseSet) []float64 {
	var out []float64
	for _, s := range sr.samples {
		if in.contains(s.done) {
			out = append(out, ms(s.late))
		}
	}
	return out
}

// okCount counts a stream's OK requests completed inside the phases.
func okCount(sr *streamRun, in phaseSet) int { return len(latencies(sr, in)) }

// okTotal counts every stream's.
func okTotal(streams []*streamRun, in phaseSet) int {
	n := 0
	for _, sr := range streams {
		n += okCount(sr, in)
	}
	return n
}

// qpsStream is the stream whose rate is the workload's throughput: the last
// closed-loop one (an open-loop stream's rate is set by its schedule).
func qpsStream(streams []*streamRun) *streamRun {
	for i := len(streams) - 1; i >= 0; i-- {
		if streams[i].spec.kind == closedLoop {
			return streams[i]
		}
	}
	return streams[0]
}

// qps is the throughput stream's OK completions per second of the phases.
func qps(streams []*streamRun, in phaseSet) float64 {
	if secs := in.seconds(); secs > 0 {
		return float64(okCount(qpsStream(streams), in)) / secs
	}
	return 0
}

// perQuery divides a phase total by the OK queries of all streams.
func perQuery(total float64, queries int) float64 {
	if queries == 0 {
		return 0
	}
	return total / float64(queries)
}

func endToEndMetrics(streams []*streamRun, win phaseSet) map[string]float64 {
	n := okTotal(streams, win)
	p := win.proc()
	lat := latencies(streams[0], win)
	return map[string]float64{
		"qps":                qps(streams, win),
		"lat_p50_ms":         percentile(lat, 50),
		"lat_p90_ms":         percentile(lat, 90),
		"allocs_per_query":   perQuery(float64(p.mallocs), n),
		"alloc_kb_per_query": perQuery(float64(p.allocated)/1024, n),
		"read_kb_per_query":  perQuery(float64(p.readChars)/1024, n),
		"peak_rss_mb":        peakRSSMB(),
	}
}
