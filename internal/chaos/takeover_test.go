package chaos

import (
	"fmt"
	"testing"
)

// TestTakeoverSchedules drives every scripted schedule: each one aims a
// failover, scale-out, scale-in or repartition at a specific hostile moment
// and must end with zero invariant violations — zero acked-tuple loss under
// ack-on-fsync, sorted and region-contained results at every barrier, and
// every handoff's ingest pause under takeoverPauseBound.
func TestTakeoverSchedules(t *testing.T) {
	if len(Schedules) < 14 {
		t.Fatalf("the scripted suite holds %d schedules, want at least 14", len(Schedules))
	}
	for _, s := range Schedules {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			rep, err := s.Run(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			report(t, rep)
			if rep.Handoffs == 0 {
				t.Error("no ownership handoff was recorded")
			}
			if rep.PauseMax > takeoverPauseBound {
				t.Errorf("ingest pause %v exceeds the one-flush-interval bound %v",
					rep.PauseMax, takeoverPauseBound)
			}
			if rep.Inserted == 0 {
				t.Error("degenerate schedule: nothing inserted")
			}
			if rep.LostAcked != 0 {
				t.Errorf("ack-on-fsync lost %d acked tuples across takeovers", rep.LostAcked)
			}
			t.Logf("%s: handoffs=%d pause_max=%v pause_p99=%v lag_max=%d records inserted=%d",
				s.Name, rep.Handoffs, rep.PauseMax, rep.PauseP99, rep.LagMax, rep.Inserted)
		})
	}
}

// TestTakeoverFaultCoverage proves the suite as a whole exercises every
// elastic fault class — takeover, add, decommission and a repartition the
// balancer carried out — so no scenario can silently degrade into a no-op.
func TestTakeoverFaultCoverage(t *testing.T) {
	covered := map[string]bool{}
	for _, s := range Schedules {
		rep, err := s.Run(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		report(t, rep)
		for class := range rep.FaultsSeen {
			covered[class] = true
		}
	}
	for _, class := range []string{FaultTakeover, FaultElasticAdd, FaultElasticDecom, FaultCrash, FaultRepartition} {
		if !covered[class] {
			t.Errorf("elastic fault class %q never exercised by the takeover suite", class)
		}
	}
}

// TestChaosElasticSeeds runs the random harness with topology churn mixed
// into the schedule: add-server, decommission and more kills interleave
// with the usual fault classes. The oracle invariants must hold on every
// seed exactly as in the static-topology bank.
func TestChaosElasticSeeds(t *testing.T) {
	seeds := []int64{41, 42, 43, 44}
	ops := 60
	if !testing.Short() {
		for s := int64(45); s <= 52; s++ {
			seeds = append(seeds, s)
		}
		ops = 120
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rep, err := Run(Options{
				Seed: seed, Ops: ops, DataDir: t.TempDir(),
				Durability: "ack-on-fsync", Elastic: true,
			})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			report(t, rep)
			if rep.Inserted == 0 || rep.Queries == 0 {
				t.Errorf("seed %d: degenerate schedule (inserted=%d queries=%d)",
					seed, rep.Inserted, rep.Queries)
			}
		})
	}
}
