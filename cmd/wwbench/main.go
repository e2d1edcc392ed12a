// Command wwbench runs the experiment harness that regenerates the
// paper's tables and figures (see DESIGN.md §4 for the experiment index).
//
// Usage:
//
//	wwbench -experiment fig7a            # one experiment
//	wwbench -experiment all -scale 0.2   # the whole suite, scaled down
//	wwbench -list                        # show experiment ids
//
// The chaos subcommand runs the seeded fault-injection harness (a seed
// replays its op trace, not necessarily its verdict):
//
//	wwbench chaos -seeds 8 -ops 120      # seed bank, exit 1 on violations
//	wwbench chaos -seed 3 -ops 140 -trace  # replay one seed with its op trace
//	wwbench chaos -takeover              # the scripted schedules, with handoff pause and lag
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"waterwheel/internal/bench"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "chaos" {
		runChaos(os.Args[2:])
		return
	}
	var (
		experiment = flag.String("experiment", "all", "experiment id or \"all\"")
		scale      = flag.Float64("scale", 1.0, "workload scale factor")
		seed       = flag.Int64("seed", 42, "random seed")
		batch      = flag.Int("batch", 0, "insert batch size for insert workloads (0/1 = per-tuple)")
		verbose    = flag.Bool("v", false, "log progress")
		list       = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(bench.IDs(), "\n"))
		return
	}
	opt := bench.Options{Scale: *scale, Seed: *seed, Batch: *batch}
	if *verbose {
		opt.Log = os.Stderr
	}
	if *experiment == "all" {
		reports, err := bench.RunAll(opt)
		for _, rep := range reports {
			fmt.Println(rep)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "wwbench:", err)
			os.Exit(1)
		}
		return
	}
	rep, err := bench.Run(*experiment, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wwbench:", err)
		os.Exit(1)
	}
	fmt.Println(rep)
}
