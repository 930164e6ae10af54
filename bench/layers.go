package main

import (
	"fmt"
	"sort"
)

// perLayerMetrics turns the traced phase into the per-layer table: span self
// times and counts from the harvested traces, counts from the registry
// delta, process counters from the two snapshots. The kernels fill in the
// rest (runKernels).
func perLayerMetrics(cfg runConfig, streams []*streamRun, untraced, traced phaseSet) (map[string]float64, []*reqTrace) {
	reg, proc := traced.reg(), traced.proc()

	ls := newLayerStats()
	var traces []*reqTrace
	var respBytes, tracedWallNs, requests int64
	var late []float64
	for _, sr := range streams {
		for _, rt := range sr.traces {
			root := rt.spans[0]
			if !traced.contains(rt.done) {
				continue
			}
			requests++
			tracedWallNs += root.End - root.Start
			respBytes += rt.respBytes
			traces = append(traces, rt)
			if rt.harvested {
				ls.add(rt)
			}
		}
		if sr.spec.kind == openLoop {
			late = append(late, lateness(sr, untraced)...)
			late = append(late, lateness(sr, traced)...)
		}
	}

	qpsOff, qpsOn := qps(streams, untraced), qps(streams, traced)
	overhead := 0.0
	if qpsOff > 0 {
		overhead = 100 * (qpsOff - qpsOn) / qpsOff
	}
	coverage := 0.0
	if tracedWallNs > 0 {
		coverage = 100 * float64(ls.wallNs) / float64(tracedWallNs)
	}

	services := reg.sum("liferaft_engine_services_total")
	unitsPerService := 0.0
	if services > 0 {
		// Every traced request reports the units each service retired for
		// it; all requests of the phase are traced, so the sum over
		// requests is the phase's total.
		unitsPerService = float64(ls.n[layerService]) / services
	}
	hits := reg.sum("liferaft_cache_hits_total", `tier="ram"`)
	misses := reg.sum("liferaft_cache_misses_total", `tier="ram"`)
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = 100 * hits / (hits + misses)
	}

	got := map[string]float64{
		"gateway.handle_ms":       ls.perRequest(ls.durNs[layerHandle]) / 1e6,
		"gateway.codec_ms":        ls.perRequestMs(layerHandle),
		"gateway.resp_kb":         float64(respBytes) / 1024 / float64(max(requests, 1)),
		"skyql.parse_us":          ls.meanSpanMs(layerParse) * 1e3,
		"skyql.compile_us":        ls.meanSpanMs(layerCompile) * 1e3,
		"portal.self_ms":          ls.perRequestMs(layerPortal),
		"catalog.extract_ms":      ls.perRequestMs(layerExtract),
		"catalog.extract_objects": ls.perRequest(ls.n[layerExtract]),
		"fed.match_ms":            ls.perRequest(ls.durNs[layerMatch]) / 1e6,
		"fed.match_self_ms":       ls.perRequestMs(layerMatch),
		"fed.hop_overhead_ms":     ls.perRequest(ls.hopOverheadNs) / 1e6,
		"fed.shipped_objects":     ls.perRequest(ls.n[layerMatch]),

		"serving.admitted":      reg.sum("liferaft_admission_total", `decision="admitted"`),
		"serving.rejected":      reg.sum("liferaft_admission_total") - reg.sum("liferaft_admission_total", `decision="admitted"`),
		"serving.aimd_cuts":     reg.sum("liferaft_aimd_cut_events_total"),
		"serving.queue_wait_ms": ls.perRequestMs(layerQueueWait),

		"engine.residence_ms":       ls.perRequest(ls.durNs[layerEngine]) / 1e6,
		"engine.admit_us":           ls.perRequest(ls.admitDelayNs) / 1e3,
		"engine.assignments":        ls.perRequest(ls.n[layerAdmit]),
		"engine.services_per_query": ls.perRequest(ls.count[layerService]),
		"engine.units_per_service":  unitsPerService,
		"engine.service_ms":         ls.meanSpanMs(layerService),
		"engine.service_self_ms":    ls.perRequestMs(layerService),
		"engine.wait_ms":            ls.perRequestMs(layerEngine),
		"engine.pick_us":            reg.meanSeconds("liferaft_engine_pick_seconds") * 1e6,
		"engine.services_scan":      reg.sum("liferaft_engine_services_total", `strategy="scan"`),
		"engine.services_index":     reg.sum("liferaft_engine_services_total", `strategy="index"`),

		"cache.ram_hit_rate": hitRate,

		"store.scan_reads":        reg.sum("liferaft_store_read_seconds_count", `kind="scan"`),
		"store.probe_reads":       reg.sum("liferaft_store_read_seconds_count", `kind="probe"`),
		"store.scan_ms_per_read":  reg.meanSeconds("liferaft_store_read_seconds", `kind="scan"`) * 1e3,
		"store.probe_ms_per_read": reg.meanSeconds("liferaft_store_read_seconds", `kind="probe"`) * 1e3,
		"store.read_ms_per_query": ls.perRequestMs(layerStoreRead),

		"proc.cpu_ms_per_query": perQuery(ms(proc.cpu), okTotal(streams, traced)),
		"proc.gc_count":         float64(proc.gcCount),
		"proc.gc_pause_ms":      ms(proc.gcPause),
		"proc.read_syscalls":    perQuery(float64(proc.readCalls), okTotal(streams, traced)),

		"bench.span_coverage_pct":  coverage,
		"bench.trace_overhead_pct": overhead,
		"bench.gen_late_p99_ms":    percentile(late, 99),
	}

	printSelfTable(cfg, ls)
	fmt.Fprintf(cfg.log, "untraced slices %.2f qps, traced slices %.2f qps; %d traced requests, %d fully harvested\n",
		qpsOff, qpsOn, requests, ls.requests)
	return got, traces
}

// printSelfTable prints where a traced request's wall time went: each
// layer's mean self time per request and its share. The rows add up to the
// gateway.handle wall because every instant belongs to exactly one span.
func printSelfTable(cfg runConfig, ls *layerStats) {
	if ls.requests == 0 {
		return
	}
	type row struct {
		layer string
		ms    float64
	}
	var rows []row
	total := 0.0
	for layer := range ls.selfNs {
		r := row{layer, ls.perRequestMs(layer)}
		rows = append(rows, r)
		total += r.ms
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ms > rows[j].ms })
	fmt.Fprintf(cfg.log, "\nself time per traced request (%s, %d requests)\n", cfg.workload.name, ls.requests)
	for _, r := range rows {
		fmt.Fprintf(cfg.log, "  %-20s %9.3f ms  %5.1f %%\n", r.layer, r.ms, 100*r.ms/total)
	}
	fmt.Fprintf(cfg.log, "  %-20s %9.3f ms\n\n", "total", total)
}
