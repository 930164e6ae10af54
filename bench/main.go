// Command bench is the repository's wall-clock benchmark: it assembles the
// stack liferaftd assembles — server.Gateway -> skyql -> federation.Portal ->
// federation.Node (serving layer, recorder, engine metrics) -> 2-shard
// core.Live -> file-backed segment store, materialization on — in one
// process, drives it by calling Gateway.ServeHTTP from goroutines, checks the
// answers against a brute-force oracle and prints every metric by name and
// unit. See README.md.
//
//	go run . -workload hot_batch -seed 1 -seconds 20            (from bench/)
//	go run . -workload cold_sweep -seed 1 -seconds 20 -trace 1  per-layer run
//	go run . -agree                                             whole suite twice
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

const (
	defaultSeconds = 20
	warmup         = 3 * time.Second
	// workDir holds segment stores while a run lasts and the trace files
	// afterwards; it is relative to the working directory (bench/ when
	// started through run.sh).
	workDir = "out"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+workloadNames())
		seed     = flag.Uint64("seed", 1, "generator seed: same seed, same queries and arrival offsets")
		seconds  = flag.Float64("seconds", defaultSeconds, "length of the timed window")
		traced   = flag.Int("trace", 0, "1 = per-layer run (spans, registry deltas, kernels); 0 = end-to-end run")
		agree    = flag.Bool("agree", false, "run the whole suite twice on -seed and compare the two sets")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fatalf("-seconds must be positive and -trace 0 or 1")
	}
	if *agree {
		os.Exit(runAgree(*seed, *seconds))
	}
	w, ok := findWorkload(*workload)
	if !ok {
		fatalf("unknown -workload %q (have %s)", *workload, workloadNames())
	}
	cfg := runConfig{
		workload: w, seed: *seed, traced: *traced == 1,
		window: time.Duration(*seconds * float64(time.Second)), warmup: warmup,
		fx: fullFixture, workDir: workDir, log: os.Stdout,
		kernelBudget: 100 * time.Millisecond, directBudget: 1500 * time.Millisecond,
	}
	printHeader(os.Stdout, cfg)
	res, err := runBenchmark(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	printResult(os.Stdout, res)
	if !res.correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// commit returns the checked-out commit when the benchmark runs inside a git
// work tree, "unknown" otherwise (the driver's checkout is not a repository).
func commit() string {
	if _, err := os.Stat("../.git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func printHeader(w io.Writer, cfg runConfig) {
	fx := cfg.fx
	buckets := (fx.objects + fx.perBucket - 1) / fx.perBucket
	fmt.Fprintf(w, "liferaft bench  workload=%s seed=%d trace=%v window=%v warmup=%v\n",
		cfg.workload.name, cfg.seed, cfg.traced, cfg.window, cfg.warmup)
	fmt.Fprintf(w, "commit=%s %s nproc=%d GOMAXPROCS=%d\n",
		commit(), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "fixture: sdss %d objects seed %d genlevel %d, %d objects/bucket x %d B = %d buckets, %.0f MB store; shards %d, cache %d/shard, alpha %.2f\n",
		fx.objects, fx.baseSeed, fx.genLevel, fx.perBucket, fx.objectBytes, buckets,
		float64(fx.objects)*float64(fx.objectBytes)/1e6, fx.shards, fx.cache, fx.alpha)
	fmt.Fprintf(w, "why: %s\n", cfg.workload.why)
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricEntry `json:"metrics"`
}

type metricEntry struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(w io.Writer, res runResult) {
	fmt.Fprintf(w, "\n%-32s %14s  %s\n", "metric", "value", "unit")
	line := resultLine{Correct: res.correct, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]metricEntry, len(res.metrics))}
	for _, m := range res.metrics {
		fmt.Fprintf(w, "%-32s %14.4f  %s\n", m.def.name, m.value, m.def.unit)
		line.Metrics[m.def.name] = metricEntry{m.value, m.def.unit}
	}
	fmt.Fprintf(w, "%-32s %14d\n%-32s %14d\n", "ops_attempted", res.attempted, "ops_failed", res.failed)
	out, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err) // only a NaN or Inf metric can get here
	}
	fmt.Fprintf(w, "%s\n", out)
}
