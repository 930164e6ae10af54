package exper

import (
	"flag"
	"os"
	"strconv"
	"strings"
	"testing"

	"liferaft/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/vqps.golden from this build's CI-scale replay")

// TestCISaturatedVQPSMatchesRecorded pins the figure every BENCH file
// since PR 3 has carried: the virtual throughput of the full CI-scale
// trace replayed saturated through one LifeRaft shard at α = 0.5. It is
// virtual time over a deterministic trace, so it is the same on every
// machine and moves only when the engine orders or charges services
// differently — a checksum of the schedule, compared to the last digit.
// (skybench -bench-json prints the same replay.)
func TestCISaturatedVQPSMatchesRecorded(t *testing.T) {
	const golden = "testdata/vqps.golden"
	env, err := NewEnv(CI())
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := core.NewVirtual(env.Part, 0.5, false)
	_, stats, err := core.Run(cfg, env.Jobs, env.SaturatedOffsets())
	if err != nil {
		t.Fatal(err)
	}
	got := strconv.FormatFloat(stats.Throughput(), 'g', -1, 64)
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
