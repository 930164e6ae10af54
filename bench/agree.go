package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// Limits -agree enforces on the traced runs besides the end-to-end bounds.
// The lateness limit is what two Ps allow: the open-loop dispatcher's timer
// fires when a P next enters the scheduler, and with both Ps inside a join, a
// JSON encode or a GC mark worker that is up to a preemption quantum (10 ms)
// later. On this sandbox the median lateness is 0.6 ms and p99 runs from 4 ms
// (untraced) to 19 ms (traced) against an interactive p50 of 40 ms; latency
// is timed from the due instant, so lateness is counted, not hidden.
const (
	maxGenLateP99Ms = 25.0
	minCoveragePct  = 90.0
)

// runOne re-executes this binary for one run — a fresh process, exactly as
// the driver starts it, so process-wide figures (peak RSS, set-up) are not
// polluted by the runs before — and parses its result line.
func runOne(workload string, seed uint64, seconds float64, traced int) (resultLine, error) {
	self, err := os.Executable()
	if err != nil {
		return resultLine{}, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(traced))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return resultLine{}, fmt.Errorf("%s trace=%d: %w\n%s", workload, traced, err, out)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return resultLine{}, fmt.Errorf("%s trace=%d: result line: %w", workload, traced, err)
	}
	return res, nil
}

// runAgree runs every workload twice on the same seed, untraced and traced,
// prints the two sets side by side and returns the exit code: non-zero when
// an end-to-end metric of the second set is worse than the first by more
// than its bound, when a request failed, or when a traced run breaks the
// generator-lateness or span-coverage limit.
func runAgree(seed uint64, seconds float64) int {
	bad := 0
	for _, w := range workloads {
		var e2e, layers [2]resultLine
		for set := 0; set < 2; set++ {
			for traced, dst := range []*resultLine{&e2e[set], &layers[set]} {
				res, err := runOne(w.name, seed, seconds, traced)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 2
				}
				*dst = res
				if res.Failed > 0 || !res.Correct {
					fmt.Printf("FAIL %s set %d trace=%d: %d of %d operations failed\n", w.name, set+1, traced, res.Failed, res.Attempted)
					bad++
				}
			}
		}
		fmt.Printf("\n%s (seed %d)\n%-32s %14s %14s %9s %7s\n", w.name, seed, "metric", "set 1", "set 2", "diff", "bound")
		for _, d := range endToEnd {
			a, b := e2e[0].Metrics[d.name].Value, e2e[1].Metrics[d.name].Value
			diff := relDiff(a, b)
			verdict := ""
			if math.Abs(diff) > d.bound {
				verdict = "  DISAGREE"
				bad++
			}
			fmt.Printf("%-32s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n", d.name, a, b, 100*diff, 100*d.bound, verdict)
		}
		for _, d := range perLayer {
			a, b := layers[0].Metrics[d.name].Value, layers[1].Metrics[d.name].Value
			verdict := ""
			switch d.name {
			case "bench.gen_late_p99_ms":
				if math.Max(a, b) > maxGenLateP99Ms {
					verdict = fmt.Sprintf("  ABOVE %.0f ms", maxGenLateP99Ms)
					bad++
				}
			case "bench.span_coverage_pct":
				if math.Min(a, b) < minCoveragePct {
					verdict = fmt.Sprintf("  BELOW %.0f %%", minCoveragePct)
					bad++
				}
			}
			fmt.Printf("%-32s %14.4f %14.4f %+8.1f%%%s\n", d.name, a, b, 100*relDiff(a, b), verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("\n%d disagreement(s)\n", bad)
		return 1
	}
	fmt.Println("\nthe two sets agree within every bound")
	return 0
}

// relDiff is (b-a)/a, 0 when both are 0.
func relDiff(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (b - a) / a
}
