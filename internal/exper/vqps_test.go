package exper

import (
	"flag"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"liferaft/internal/core"
	"liferaft/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/vqps.golden from this build's CI-scale replay")

// TestCISaturatedVQPSMatchesRecorded pins the figure every BENCH file
// since PR 3 has carried: the virtual throughput of the full CI-scale
// trace replayed saturated through one LifeRaft shard at α = 0.5. It is
// virtual time over a deterministic trace, so it is the same on every
// machine and moves only when the engine orders or charges services
// differently — a checksum of the schedule, compared to the last digit.
// The trace is replayed a second time with every job carrying a span
// recorder: tracing spends no virtual time, so the traced replay must
// print the same figure, or the instrumentation perturbed the schedule.
func TestCISaturatedVQPSMatchesRecorded(t *testing.T) {
	const golden = "testdata/vqps.golden"
	env, err := NewEnv(CI())
	if err != nil {
		t.Fatal(err)
	}
	got := replayVQPS(t, env, false)
	if traced := replayVQPS(t, env, true); traced != got {
		t.Errorf("vqps = %s with every query traced, %s untraced: tracing moved the virtual schedule", traced, got)
	}
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if w := strings.TrimSpace(string(want)); got != w {
		t.Fatalf("vqps = %s, recorded %s: the virtual-clock schedule (or the disk model's charges, the CI catalog or its trace) changed. "+
			"If that is the point of the change, say why in CHANGES.md and re-record with: go test -run CISaturatedVQPS ./internal/exper/ -update", got, w)
	}
}

// replayVQPS runs env's jobs saturated through one virtual-clock LifeRaft
// shard at α = 0.5 and returns the virtual throughput as printed; traced
// gives every job a span recorder (Finish included).
func replayVQPS(t *testing.T, env *Env, traced bool) string {
	t.Helper()
	jobs := env.Jobs
	var rec *trace.Recorder
	var trs []*trace.Trace
	if traced {
		rec = trace.New(trace.Config{SlowThreshold: time.Hour})
		jobs = make([]core.Job, len(env.Jobs))
		trs = make([]*trace.Trace, len(env.Jobs))
		for i, j := range env.Jobs {
			trs[i] = rec.Start("vqps", j.ID)
			j.Trace = trs[i]
			jobs[i] = j
		}
	}
	cfg, _ := core.NewVirtual(env.Part, 0.5, false)
	_, stats, err := core.Run(cfg, jobs, env.SaturatedOffsets())
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trs {
		rec.Finish(tr)
	}
	return strconv.FormatFloat(stats.Throughput(), 'g', -1, 64)
}
