package main

import (
	"flag"
	"fmt"
	"os"

	"waterwheel/internal/chaos"
	"waterwheel/internal/telemetry"
)

// runChaos implements the "wwbench chaos" subcommand: it drives the
// fault-injection harness (internal/chaos) from the command line, over a
// bank of consecutive seeds (-seeds), a single seed (-seed), or the
// scripted schedules (-takeover), printing every run on one line through
// one loop, and exits non-zero if any run ends with invariant violations.
// CI uses it as the chaos smoke steps; developers use it to replay the op
// trace of a seed or schedule a failing test printed — the trace replays, a
// timing-dependent violation need not.
func runChaos(args []string) {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	var (
		seeds    = fs.Int("seeds", 4, "number of consecutive seeds to run, starting at -seed")
		seed     = fs.Int64("seed", 1, "first (or only) seed")
		ops      = fs.Int("ops", 80, "schedule length per run")
		nodes    = fs.Int("nodes", 3, "cluster nodes")
		trace    = fs.Bool("trace", false, "print the full op trace of every run")
		dataDir  = fs.String("datadir", "", "run disk-backed with a restart pass (empty: in-memory)")
		dur      = fs.String("durability", "", "insert ack policy with -datadir: ack-on-write, ack-on-fsync, interval")
		crash    = fs.Bool("hardcrash", false, "with -datadir: hard-crash after the schedule (discard unsynced WAL bytes), reopen, re-verify")
		elastic  = fs.Bool("elastic", false, "mix elastic topology ops (add/decommission/more kills) into the schedule")
		takeover = fs.Bool("takeover", false, "run the scripted schedules (each disk-backed, under ack-on-fsync) instead of random seeds")
	)
	fs.Parse(args)
	if (*crash || *dur != "") && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "wwbench chaos: -hardcrash and -durability require -datadir")
		os.Exit(1)
	}

	// A disk-backed run — every scripted one, a seeded one with -datadir —
	// gets a fresh directory under -datadir (the system's temp directory
	// when it is empty), removed once the run passes.
	type chaosRun struct {
		name string
		seed int64
		disk bool
		run  func(dir string) (*chaos.Report, error)
	}
	var runs []chaosRun
	if *takeover {
		for _, s := range chaos.Schedules {
			runs = append(runs, chaosRun{s.Name, s.Seed, true, s.Run})
		}
	} else {
		for s := *seed; s < *seed+int64(*seeds); s++ {
			opts := chaos.Options{Seed: s, Ops: *ops, Nodes: *nodes, Durability: *dur, Elastic: *elastic,
				HardCrash: *crash, Restart: !*crash, Telemetry: telemetry.NewRegistry()}
			runs = append(runs, chaosRun{fmt.Sprintf("seeded, %d ops", *ops), s, *dataDir != "", func(dir string) (*chaos.Report, error) {
				opts.DataDir = dir
				return chaos.Run(opts)
			}})
		}
	}

	failed := false
	for _, r := range runs {
		dir := ""
		if r.disk {
			var err error
			if dir, err = os.MkdirTemp(*dataDir, fmt.Sprintf("chaos-seed%d-", r.seed)); err != nil {
				fmt.Fprintln(os.Stderr, "wwbench chaos:", err)
				os.Exit(1)
			}
		}
		rep, err := r.run(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wwbench chaos: %s seed %d: %v\n", r.name, r.seed, err)
			os.Exit(1)
		}
		status := "ok"
		if len(rep.Violations) > 0 {
			status = fmt.Sprintf("FAIL (%d violations)", len(rep.Violations))
			failed = true
		} else if dir != "" {
			os.RemoveAll(dir)
		}
		if *crash {
			status = fmt.Sprintf("orphans-swept %d replayed %d lost-acked %d (expected 0 only under ack-on-fsync): %s",
				rep.OrphansSwept, rep.Replayed, rep.LostAcked, status)
		}
		fmt.Printf("%-32s seed %-5d inserted %-6d queries %-4d faults %-2d handoffs %-3d pause_max %-12v lag_max %-6d: %s\n",
			r.name, r.seed, rep.Inserted, rep.Queries, len(rep.FaultsSeen), rep.Handoffs, rep.PauseMax, rep.LagMax, status)
		if *trace || len(rep.Violations) > 0 {
			for _, line := range rep.Trace {
				fmt.Println("  ", line)
			}
		}
		for _, v := range rep.Violations {
			fmt.Println("  violation:", v)
		}
	}
	if failed {
		os.Exit(1)
	}
}
