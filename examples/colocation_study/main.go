// Colocation study walkthrough: put a well-behaved tenant (Data
// Serving) on half the machine and a memory-hog adversary on the other
// half, then watch what each scheduler does to the victim.
//
// The paper evaluates every workload running alone; multi-tenant
// clouds colocate them, and a hostile neighbor can inflate a victim's
// memory latency by an order of magnitude (Zhang et al., Memory DoS
// Attacks in Multi-tenant Clouds). This example runs the same mix
// under FR-FCFS (throughput-first, hog-friendly) and ATLAS
// (least-attained-service, hog-resistant) and prints the fairness
// verdict.
//
//	go run ./examples/colocation_study
package main

import (
	"fmt"
	"log"

	"cloudmc/internal/core"
	"cloudmc/internal/experiment"
	"cloudmc/internal/sched"
	"cloudmc/internal/tenant"
	"cloudmc/internal/workload"
)

const measureCycles = 300_000

func main() {
	// A 16-core machine, split 8/8 between a victim and an adversary.
	mix := tenant.Pair(workload.DataServing(), workload.MemoryHog(), 8)

	for _, kind := range []sched.Kind{sched.FRFCFS, sched.ATLAS} {
		// 1. Solo baselines: each tenant alone on its own cores, with
		//    the whole memory system to itself.
		solo := make([]float64, len(mix.Tenants))
		for i, sp := range mix.Tenants {
			cfg := core.DefaultConfig(sp.Adjusted())
			cfg.Scheduler = kind
			cfg.MeasureCycles = measureCycles
			// The study's compressed quanta (about ten per run): with
			// the paper's 10M-cycle quantum the ATLAS ranking would
			// never update inside a short run.
			experiment.ScaleQuanta(&cfg)
			sys, err := core.NewSystem(cfg)
			if err != nil {
				log.Fatal(err)
			}
			solo[i] = sys.Run().UserIPC
		}

		// 2. The colocation run: same machine, both tenants contending
		//    for the shared L2 and the memory controller.
		cfg := core.DefaultMixConfig(mix)
		cfg.Scheduler = kind
		cfg.MeasureCycles = measureCycles
		experiment.ScaleQuanta(&cfg)
		sys, err := core.NewSystem(cfg)
		if err != nil {
			log.Fatal(err)
		}
		m := sys.Run()

		// 3. Fairness: slowdown vs solo, weighted/harmonic speedup.
		shared := make([]float64, len(m.Tenants))
		for i, tm := range m.Tenants {
			shared[i] = tm.IPC
		}
		f := tenant.ComputeFairness(solo, shared)

		fmt.Printf("%s scheduling %s:\n", kind, mix.Name)
		for i, tm := range m.Tenants {
			fmt.Printf("  %-4s ipc %.3f (solo %.3f, slowdown %.2fx)  latency %.0f cycles  row-hit %.1f%%\n",
				tm.Name, tm.IPC, solo[i], f.Slowdowns[i], tm.AvgReadLatency, 100*tm.RowHitRate)
		}
		fmt.Printf("  weighted speedup %.3f / %d, harmonic %.3f, max slowdown %.2fx\n\n",
			f.WeightedSpeedup, len(mix.Tenants), f.HarmonicSpeedup, f.MaxSlowdown)
	}

	fmt.Println("FR-FCFS rewards the hog's row locality-free flood with equal")
	fmt.Println("service; ATLAS ranks tenants by attained service, so the hog's")
	fmt.Println("appetite demotes it and the victim claws back its throughput.")
	fmt.Println("Run `go run ./cmd/mcmix` for the full mix x scheduler sweep.")
}
