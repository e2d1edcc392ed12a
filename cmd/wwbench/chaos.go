package main

import (
	"flag"
	"fmt"
	"os"

	"waterwheel/internal/chaos"
)

// runChaos implements the "wwbench chaos" subcommand: it drives the
// deterministic fault-injection harness (internal/chaos) from the command
// line, either over a bank of consecutive seeds (-seeds) or a single seed
// (-seed), and exits non-zero if any run ends with invariant violations.
// CI uses it as the chaos smoke step; developers use it to replay a seed a
// failing test printed.
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
		takeover = fs.Bool("takeover", false, "run the scripted takeover suite (every seeded schedule) instead of random seeds")
		tiering  = fs.Bool("tiering", false, "run with hierarchical time tiering: retention ops demote and compact before dropping")
	)
	fs.Parse(args)
	if (*crash || *dur != "") && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "wwbench chaos: -hardcrash and -durability require -datadir")
		os.Exit(1)
	}
	if *takeover {
		runTakeoverSuite(*trace)
		return
	}

	failed := false
	for s := *seed; s < *seed+int64(*seeds); s++ {
		opts := chaos.Options{Seed: s, Ops: *ops, Nodes: *nodes, Durability: *dur,
			Elastic: *elastic, Tiering: *tiering}
		if *dataDir != "" {
			dir, err := os.MkdirTemp(*dataDir, fmt.Sprintf("chaos-seed%d-", s))
			if err != nil {
				fmt.Fprintln(os.Stderr, "wwbench chaos:", err)
				os.Exit(1)
			}
			opts.DataDir = dir
			if *crash {
				opts.HardCrash = true
			} else {
				opts.Restart = true
			}
		}
		rep, err := chaos.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wwbench chaos: seed %d: %v\n", s, err)
			os.Exit(1)
		}
		status := "ok"
		if len(rep.Violations) > 0 {
			status = fmt.Sprintf("FAIL (%d violations)", len(rep.Violations))
			failed = true
		}
		if *crash {
			status = fmt.Sprintf("orphans-swept %d replayed %d lost-acked %d (expected 0 only under ack-on-fsync): %s",
				rep.OrphansSwept, rep.Replayed, rep.LostAcked, status)
		}
		fmt.Printf("seed %-4d ops %-4d inserted %-6d queries %-4d faults %d: %s\n",
			rep.Seed, *ops, rep.Inserted, rep.Queries, len(rep.FaultsSeen), status)
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

// runTakeoverSuite drives every scripted takeover schedule — the seeded
// elastic chaos scenarios the test suite runs — printing each schedule's
// handoff metrics and exiting non-zero on any invariant violation.
func runTakeoverSuite(trace bool) {
	failed := false
	for _, s := range chaos.TakeoverSchedules {
		dir, err := os.MkdirTemp("", "takeover-"+s.Name+"-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "wwbench chaos:", err)
			os.Exit(1)
		}
		rep, err := chaos.RunTakeover(s, dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wwbench chaos: takeover %s: %v\n", s.Name, err)
			os.Exit(1)
		}
		status := "ok"
		if len(rep.Violations) > 0 {
			status = fmt.Sprintf("FAIL (%d violations)", len(rep.Violations))
			failed = true
		}
		fmt.Printf("%-32s seed %-5d handoffs %-3d pause_max %-12v lag_max %-6d inserted %-6d: %s\n",
			s.Name, s.Seed, rep.Handoffs, rep.PauseMax, rep.LagMax, rep.Inserted, status)
		if trace || len(rep.Violations) > 0 {
			for _, line := range rep.Trace {
				fmt.Println("  ", line)
			}
		}
		for _, v := range rep.Violations {
			fmt.Println("  violation:", v)
		}
		os.RemoveAll(dir)
	}
	if failed {
		os.Exit(1)
	}
}
