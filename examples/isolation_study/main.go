// Isolation study walkthrough: take the DoS scenario of the
// colocation study — a well-behaved Data Serving tenant sharing the
// machine with a memory-hog adversary — and turn on the mitigation
// levers one at a time:
//
//   - banks: the address map carves the rank x bank index space into
//     per-tenant slices, so the hog can never open or close a row in
//     the victim's banks (the bank/row-conflict channel of Zhang et
//     al.'s memory DoS attacks is closed by construction);
//   - ways: the shared LLC's ways are split between the tenants, so
//     the hog's flood cannot flush the victim's working set;
//   - banks+ways: both.
//
// It also swaps the scheduler from throughput-first FR-FCFS to the
// SLO-targeting QoS policy, which boosts any tenant whose estimated
// memory slowdown is projected above a configured budget. The output
// is the mitigation table: victim slowdown under every (scheduler,
// isolation) cell.
//
//	go run ./examples/isolation_study
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

const (
	measureCycles = 150_000
	maxSlowdown   = 1.2 // the operator's per-tenant slowdown budget
)

// scalePolicies shrinks the ATLAS/QoS monitoring quanta to the
// compressed measurement window, exactly as the experiment harness
// does, and sets the operator's slowdown budget.
func scalePolicies(cfg *core.Config) {
	experiment.ScaleQuanta(cfg)
	cfg.SchedOpts.QoS.MaxSlowdownSLO = maxSlowdown
}

func main() {
	mix := tenant.Pair(workload.DataServing(), workload.MemoryHog(), 8)

	fmt.Printf("victim slowdown in %s (SLO budget %.1fx):\n\n", mix.Name, maxSlowdown)
	fmt.Printf("%-10s %-12s %8s %8s %10s %10s\n", "scheduler", "isolation", "DS slow", "HOG slow", "DS lat", "DS row-hit")
	for _, kind := range []sched.Kind{sched.FRFCFS, sched.QoS} {
		// Solo baselines: each tenant alone on its own cores with the
		// whole memory system to itself, under the same scheduler —
		// the same per-scheduler baseline experiment.RunSolo uses, so
		// this table is reproducible with cmd/mcmix.
		solo := make([]float64, len(mix.Tenants))
		for i, sp := range mix.Tenants {
			cfg := core.DefaultConfig(sp.Adjusted())
			cfg.Scheduler = kind
			cfg.MeasureCycles = measureCycles
			scalePolicies(&cfg)
			sys, err := core.NewSystem(cfg)
			if err != nil {
				log.Fatal(err)
			}
			solo[i] = sys.Run().UserIPC
		}
		for _, iso := range core.Isolations {
			cfg := core.DefaultMixConfig(mix)
			cfg.Scheduler = kind
			cfg.Isolation = iso
			cfg.MeasureCycles = measureCycles
			scalePolicies(&cfg)
			sys, err := core.NewSystem(cfg)
			if err != nil {
				log.Fatal(err)
			}
			m := sys.Run()
			shared := make([]float64, len(m.Tenants))
			for i, tm := range m.Tenants {
				shared[i] = tm.IPC
			}
			f := tenant.ComputeFairness(solo, shared)
			verdict := ""
			if f.Slowdowns[0] <= maxSlowdown {
				verdict = "  <- meets SLO"
			}
			fmt.Printf("%-10s %-12s %8.3f %8.3f %9.0fc %9.1f%%%s\n",
				kind, iso, f.Slowdowns[0], f.Slowdowns[1],
				m.Tenants[0].AvgReadLatency, 100*m.Tenants[0].RowHitRate, verdict)
		}
		fmt.Println()
	}

	fmt.Println("Bank partitioning closes the row-conflict channel (watch the")
	fmt.Println("victim's latency collapse and its row-hit rate recover); way")
	fmt.Println("partitioning keeps the hog out of the victim's LLC share; the")
	fmt.Println("QoS scheduler meets the slowdown budget even with no hardware")
	fmt.Println("isolation at all, at the cost of hog throughput. Sweep every")
	fmt.Println("mix with `go run ./cmd/mcmix -isolation all -scheds FR-FCFS,QoS`.")
}
