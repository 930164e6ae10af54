// Saturation: derive the throughput/response-time trade-off curves of
// paper §4 (Figure 4) for a small workload, then use the tolerance-based
// tuner to pick the age bias α a deployment should run at each saturation
// — large α (arrival order) when load is light, small α (contention-driven
// batching) when load is heavy.
//
//	go run ./examples/saturation
package main

import (
	"fmt"
	"log"
	"time"

	"liferaft"
)

func main() {
	local, err := liferaft.NewCatalog(liferaft.CatalogConfig{
		Name: "sdss", N: 100_000, Seed: 31, GenLevel: 4, CacheTrixels: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	remote, err := liferaft.NewDerivedCatalog(local, liferaft.DerivedConfig{
		Name: "twomass", Seed: 32, Fraction: 0.8,
		JitterRad: liferaft.ArcsecToRad(1.5), CacheTrixels: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	part, err := liferaft.NewPartition(local, 400, 0)
	if err != nil {
		log.Fatal(err)
	}

	// A representative workload (paper §4: curves are derived offline
	// from a representative trace).
	tcfg := liferaft.DefaultTraceConfig(33)
	tcfg.NumQueries = 200
	tcfg.MinSelectivity, tcfg.MaxSelectivity = 0.1, 0.8
	trace, err := liferaft.GenerateTrace(tcfg)
	if err != nil {
		log.Fatal(err)
	}
	var jobs []liferaft.Job
	for _, q := range trace.Queries {
		jobs = append(jobs, liferaft.Job{
			ID: q.ID, Objects: liferaft.MaterializeQuery(q, remote, tcfg.Seed),
		})
	}

	measure := func(rate float64) liferaft.Curve {
		offs := liferaft.PoissonArrivals{RatePerSec: rate}.Offsets(len(jobs), 5)
		curve, err := liferaft.BuildCurve(nil, func(alpha float64) ([]liferaft.Result, liferaft.RunStats, error) {
			cfg, _ := liferaft.NewVirtualConfig(part, alpha, false)
			return liferaft.Run(cfg, jobs, offs)
		})
		if err != nil {
			log.Fatal(err)
		}
		return curve
	}

	tuner, err := liferaft.NewTuner(0.20) // paper: 20% throughput tolerance
	if err != nil {
		log.Fatal(err)
	}
	for _, rate := range []float64{1, 4, 16} {
		curve := measure(rate)
		fmt.Printf("\nsaturation %.0f q/s (normalized curve):\n", rate)
		for _, p := range curve.Normalized() {
			fmt.Printf("  α=%.2f  throughput=%.2f  response=%.2f\n", p.Alpha, p.Throughput, p.RespTime)
		}
		if err := tuner.AddCurve(rate, curve); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("\ntuner selections (20% throughput tolerance):")
	for _, rate := range []float64{0.5, 2, 6, 20} {
		alpha, err := tuner.Alpha(rate)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  at %5.1f q/s run α=%.2f\n", rate, alpha)
	}

	// A live deployment feeds the tuner from the arrival-rate estimator.
	est, _ := liferaft.NewSaturationEstimator(time.Minute)
	now := time.Now()
	for i := 0; i < 100; i++ {
		//lifevet:allow durovf -- demo binary: i counts a fixed 100-query burst
		est.Observe(now.Add(time.Duration(i) * 250 * time.Millisecond)) // 4 q/s burst
	}
	alpha, _ := tuner.Alpha(est.Rate())
	fmt.Printf("\nestimator sees %.1f q/s -> engine should run α=%.2f\n", est.Rate(), alpha)
}
