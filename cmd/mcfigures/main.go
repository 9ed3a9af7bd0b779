// Command mcfigures regenerates every figure and table of the paper's
// evaluation section on the simulator and prints them as aligned text,
// optionally writing CSVs.
//
// Usage:
//
//	mcfigures [-scale quick|standard] [-only "Figure 1"] [-csv DIR]
//	          [-cycles N] [-warm N] [-seed N] [-par N]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cloudmc/internal/experiment"
)

func main() {
	scale := flag.String("scale", "standard", "run scale: quick or standard")
	only := flag.String("only", "", "render only the artifact with this ID (e.g. \"Figure 1\", \"Table 4\")")
	csvDir := flag.String("csv", "", "directory to write per-figure CSV files")
	cycles := flag.Uint64("cycles", 0, "override measured cycles per run")
	warm := flag.Uint64("warm", 0, "override timed warmup cycles per run")
	seed := flag.Uint64("seed", 0, "override simulation seed")
	par := flag.Int("par", 0, "max concurrent simulations (0 = NumCPU)")
	flag.Parse()

	var cfg experiment.Config
	switch *scale {
	case "quick":
		cfg = experiment.Quick()
	case "standard":
		cfg = experiment.Standard()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	if *cycles > 0 {
		cfg.MeasureCycles = *cycles
	}
	if *warm > 0 {
		cfg.WarmupCycles = *warm
	}
	if *seed > 0 {
		cfg.Seed = *seed
	}
	cfg.Parallelism = *par

	build := (*experiment.Study).All
	if *only != "" {
		one, err := experiment.Artifact(*only)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		build = func(s *experiment.Study) []*experiment.Table { return []*experiment.Table{one(s)} }
	}

	study := experiment.NewStudy(cfg)
	start := time.Now()
	tables := build(study)
	elapsed := time.Since(start)

	for _, t := range tables {
		fmt.Println(t.Render())
		if *csvDir != "" {
			name := strings.ToLower(strings.ReplaceAll(t.ID, " ", "_")) + ".csv"
			path := filepath.Join(*csvDir, name)
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "total simulation wall time: %s\n", elapsed.Round(time.Millisecond))
}
