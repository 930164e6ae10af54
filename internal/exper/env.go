// Package exper regenerates every table and figure of the paper's
// evaluation (§5) plus the ablation studies in ablations.go. Each
// experiment returns a Table that prints the same rows or series the paper
// reports; cmd/skybench is the CLI front end.
package exper

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"liferaft/internal/bucket"
	"liferaft/internal/catalog"
	"liferaft/internal/core"
	"liferaft/internal/geom"
	"liferaft/internal/workload"
)

// Scale sizes an experiment environment. The published evaluation ran on a
// 6 TB archive in 20,000 buckets of 10,000 objects; the shapes under study
// (sharing, contention, starvation) are preserved at much smaller scales
// as long as arrival rates are expressed relative to system capacity.
type Scale struct {
	Name string
	// LocalN is the local (SDSS) archive size in objects.
	LocalN int
	// RemoteFraction sizes the remote archive relative to the local one
	// (it re-observes the same sky; see catalog.NewDerived).
	RemoteFraction float64
	// GenLevel is the catalog materialization level.
	GenLevel int
	// ObjectsPerBucket partitions the local archive.
	ObjectsPerBucket int
	// NumQueries is the trace length (paper: 2,000).
	NumQueries int
	// CacheBuckets is the bucket cache capacity (paper: 20).
	CacheBuckets int
	// Shards runs every experiment's engine across K disk/worker
	// shards (core.Config.Shards); 0 or 1 is the paper's single disk.
	Shards int
	// Seed drives everything.
	Seed int64
}

// CI is the fast scale used by tests and benchmarks (~300 buckets,
// 600 queries; a full figure regenerates in well under a second).
func CI() Scale {
	return Scale{
		Name: "ci", LocalN: 120_000, RemoteFraction: 0.8, GenLevel: 4,
		ObjectsPerBucket: 400, NumQueries: 600, CacheBuckets: 20, Seed: 42,
	}
}

// Mid is skybench's -scale mid: the paper's 2,000-query trace
// over ~2,000 buckets; every figure regenerates in seconds.
func Mid() Scale {
	return Scale{
		Name: "mid", LocalN: 1_000_000, RemoteFraction: 0.8, GenLevel: 6,
		ObjectsPerBucket: 500, NumQueries: 2000, CacheBuckets: 20, Seed: 42,
	}
}

// Paper approaches the published geometry: 20,000 buckets of 10,000
// objects and the 2,000-query trace. Expect minutes per figure.
func Paper() Scale {
	return Scale{
		Name: "paper", LocalN: 200_000_000, RemoteFraction: 0.5, GenLevel: 8,
		ObjectsPerBucket: 10_000, NumQueries: 2000, CacheBuckets: 20, Seed: 42,
	}
}

// ScaleByName resolves "ci", "mid", or "paper".
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "ci", "":
		return CI(), nil
	case "mid":
		return Mid(), nil
	case "paper":
		return Paper(), nil
	default:
		return Scale{}, fmt.Errorf("exper: unknown scale %q (ci|mid|paper)", name)
	}
}

// Env is a fully built experiment environment: archives, partition, trace,
// and pre-processed jobs, shared by all figures at one scale.
type Env struct {
	Scale  Scale
	Local  *catalog.Catalog
	Remote *catalog.Catalog
	Part   *bucket.Partition
	Trace  *workload.Trace
	Jobs   []core.Job

	capOnce sync.Once
	capQPS  float64
	capErr  error
}

// NewEnv builds the environment. Construction is the expensive step
// (catalog apportionment and workload materialization); every figure run
// afterwards reuses it.
func NewEnv(scale Scale) (*Env, error) {
	cacheTrixels := scale.LocalN <= 10_000_000 // keep paper-scale catalogs out of memory
	local, err := catalog.New(catalog.Config{
		Name: "sdss", N: scale.LocalN, Seed: scale.Seed, GenLevel: scale.GenLevel,
		CacheTrixels: cacheTrixels,
	})
	if err != nil {
		return nil, err
	}
	remote, err := catalog.NewDerived(local, catalog.DerivedConfig{
		Name: "twomass", Seed: scale.Seed + 1, Fraction: scale.RemoteFraction,
		JitterRad: geom.ArcsecToRad(1.5), CacheTrixels: cacheTrixels,
	})
	if err != nil {
		return nil, err
	}
	part, err := bucket.NewPartition(local, scale.ObjectsPerBucket, 0)
	if err != nil {
		return nil, err
	}
	tcfg := workload.DefaultTraceConfig(scale.Seed)
	tcfg.NumQueries = scale.NumQueries
	tcfg.MinSelectivity, tcfg.MaxSelectivity = 0.05, 1.0
	trace, err := workload.Generate(tcfg)
	if err != nil {
		return nil, err
	}
	env := &Env{Scale: scale, Local: local, Remote: remote, Part: part, Trace: trace}
	for _, q := range trace.Queries {
		env.Jobs = append(env.Jobs, core.Job{
			ID:      q.ID,
			Objects: workload.Materialize(q, remote, tcfg.Seed),
			Pred:    q.Predicate(),
		})
	}
	return env, nil
}

// Config builds an engine config for this environment at the given α. The
// experiments run cost-only: the schedule, not the joins' answers, is what
// they measure.
func (e *Env) Config(alpha float64) core.Config {
	cfg, _ := core.NewVirtual(e.Part, alpha, false)
	cfg.CacheBuckets = e.Scale.CacheBuckets
	cfg.Shards = e.Scale.Shards
	return cfg
}

// SaturatedOffsets returns a uniform arrival stream at 1.25x system
// capacity — oversaturated so backlog grows (the regime of Figure 7), but
// still a continuous stream, so batches form and re-form the way they do
// in a live federation. (An all-at-once burst would degenerate to exactly
// one batch per bucket, erasing the ordering effects under study.)
func (e *Env) SaturatedOffsets() []time.Duration {
	cap, err := e.Capacity()
	if err != nil || cap <= 0 {
		cap = 1
	}
	interval := time.Duration(float64(time.Second) / (1.25 * cap))
	out := make([]time.Duration, len(e.Jobs))
	for i := range out {
		out[i] = time.Duration(i) * interval
	}
	return out
}

// PoissonOffsets returns Poisson arrivals at the given rate.
func (e *Env) PoissonOffsets(rate float64) []time.Duration {
	return workload.Poisson{RatePerSec: rate}.Offsets(len(e.Jobs), e.Scale.Seed+7)
}

// Capacity estimates the system's maximum query throughput: the greedy
// scheduler's completion rate when the entire trace is pending at once
// (pure batch mode, no arrival limit). Saturation levels are expressed as
// fractions of this capacity so experiments transfer across scales. The
// estimate is memoized.
func (e *Env) Capacity() (float64, error) {
	e.capOnce.Do(func() {
		offs := make([]time.Duration, len(e.Jobs))
		_, stats, err := core.Run(e.Config(0), e.Jobs, offs)
		if err != nil {
			e.capErr = err
			return
		}
		e.capQPS = stats.Throughput()
	})
	return e.capQPS, e.capErr
}

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Fprint renders the table as aligned text.
func (t Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\n=== %s ===\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(t.Header)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	fmt.Fprintf(w, "  %s\n", strings.Repeat("-", total))
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// String renders the table.
func (t Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

func f3(x float64) string  { return fmt.Sprintf("%.3f", x) }
func f2(x float64) string  { return fmt.Sprintf("%.2f", x) }
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
