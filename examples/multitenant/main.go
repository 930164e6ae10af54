// Multi-tenant serving: N competing tenants share one 4-shard LifeRaft
// engine through the admission-control + fair-queueing layer. A
// saturating, bursty tenant floods the node while two steady tenants run
// one query at a time; the serving layer keeps the steady tenants'
// response times near their solo baseline, where submitting the same flood
// straight into the engine multiplies them.
//
//	go run ./examples/multitenant
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"liferaft"
	"liferaft/internal/xmatch"
)

var nextID atomic.Uint64

// freshJob clones a template job under a fresh engine-unique query ID.
func freshJob(j liferaft.Job) liferaft.Job {
	j.ID = nextID.Add(1)
	objs := make([]xmatch.WorkloadObject, len(j.Objects))
	for i, wo := range j.Objects {
		wo.QueryID = j.ID
		objs[i] = wo
	}
	j.Objects = objs
	return j
}

func buildJobs(remote *liferaft.Catalog, seed int64, n int, minSel, maxSel float64) []liferaft.Job {
	cfg := liferaft.DefaultTraceConfig(seed)
	cfg.NumQueries = n
	cfg.MinSelectivity, cfg.MaxSelectivity = minSel, maxSel
	trace, err := liferaft.GenerateTrace(cfg)
	if err != nil {
		log.Fatal(err)
	}
	var jobs []liferaft.Job
	for _, q := range trace.Queries {
		jobs = append(jobs, liferaft.Job{
			Objects: liferaft.MaterializeQuery(q, remote, cfg.Seed), Pred: q.Predicate(),
		})
	}
	return jobs
}

func main() {
	local, err := liferaft.NewCatalog(liferaft.CatalogConfig{
		Name: "sdss", N: 12_800, Seed: 51, GenLevel: 4, CacheTrixels: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	remote, err := liferaft.NewDerivedCatalog(local, liferaft.DerivedConfig{
		Name: "twomass", Seed: 52, Fraction: 0.8,
		JitterRad: liferaft.ArcsecToRad(1.5), CacheTrixels: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	part, err := liferaft.NewPartition(local, 400, 0) // 32 buckets
	if err != nil {
		log.Fatal(err)
	}
	steadyJobs := buildJobs(remote, 61, 20, 0.1, 0.3)
	floodJobs := buildJobs(remote, 67, 300, 0.5, 1.0)

	newEngine := func() *liferaft.Live {
		cfg, _ := liferaft.NewVirtualConfig(part, 0.5, false)
		cfg.Shards = 4
		eng, err := liferaft.NewLive(cfg)
		if err != nil {
			log.Fatal(err)
		}
		return eng
	}
	serveCfg := liferaft.ServerConfig{
		MaxInFlight: 4,
		Tenants: []liferaft.TenantConfig{
			{Name: "alice", Rate: -1},
			{Name: "bob", Rate: -1},
			{Name: "flood", Rate: 2, Burst: 4, QueueDepth: 8},
		},
	}

	steady := func(s *liferaft.Server, tenant string) {
		for _, j := range steadyJobs {
			ch, err := s.Submit(context.Background(), tenant, freshJob(j))
			if err != nil {
				log.Fatalf("%s: %v", tenant, err)
			}
			<-ch
		}
	}

	// Solo baseline: alice alone on an idle engine.
	eng := newEngine()
	s, err := liferaft.NewServer(eng, serveCfg)
	if err != nil {
		log.Fatal(err)
	}
	steady(s, "alice")
	soloP99 := s.TenantSummary("alice").P99
	s.Close()
	eng.Close()

	// Competing tenants behind admission control: the flood tenant
	// hammers the node open loop; alice and bob pace themselves.
	eng = newEngine()
	s, err = liferaft.NewServer(eng, serveCfg)
	if err != nil {
		log.Fatal(err)
	}
	done := make(chan struct{})
	var floodWG sync.WaitGroup
	floodWG.Add(1)
	go func() {
		defer floodWG.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if _, err := s.Submit(context.Background(), "flood", freshJob(floodJobs[i%len(floodJobs)])); err != nil {
				time.Sleep(time.Millisecond) // rejected: back off briefly
			}
		}
	}()
	var wg sync.WaitGroup
	for _, tenant := range []string{"alice", "bob"} {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			steady(s, tenant)
		}(tenant)
	}
	wg.Wait()
	close(done)
	floodWG.Wait()

	fmt.Printf("alice solo p99: %.3fs (virtual)\n\n", soloP99)
	fmt.Println("with admission control + DRR fair queueing:")
	fmt.Printf("%-8s %9s %9s %9s %9s %9s %9s\n",
		"tenant", "submitted", "admitted", "rejected", "completed", "p50(s)", "p99(s)")
	for _, ts := range s.Stats().Tenants {
		fmt.Printf("%-8s %9d %9d %9d %9d %9.3f %9.3f\n",
			ts.Tenant, ts.Submitted, ts.Admitted, ts.RejectedRate+ts.RejectedQueue,
			ts.Completed, ts.RespTime.P50, ts.RespTime.P99)
	}
	fairP99 := s.TenantSummary("alice").P99
	s.Close()
	eng.Close()

	// The same flood without the serving layer: everything lands in the
	// engine's workload queues and the steady tenant pays for it.
	eng = newEngine()
	preload := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := eng.SubmitCtx(context.Background(), freshJob(floodJobs[i%len(floodJobs)])); err != nil {
				log.Fatal(err)
			}
		}
	}
	preload(500)
	var rawWorst time.Duration
	for _, j := range steadyJobs {
		ch, err := eng.SubmitCtx(context.Background(), freshJob(j))
		if err != nil {
			log.Fatal(err)
		}
		r := <-ch
		if rt := r.ResponseTime(); rt > rawWorst {
			rawWorst = rt
		}
		preload(30)
	}
	eng.Close()

	fmt.Printf("\nalice p99, engine shared fairly:   %.3fs (%.1fx solo)\n", fairP99, fairP99/soloP99)
	fmt.Printf("alice worst, no serving layer:     %.3fs (%.1fx solo)\n",
		rawWorst.Seconds(), rawWorst.Seconds()/soloP99)
	fmt.Println("\nper-tenant fairness holds: the flood tenant is rate-limited and")
	fmt.Println("fair-queued, so its burst queues behind its own quota instead of")
	fmt.Println("in front of everyone else's queries.")
}
