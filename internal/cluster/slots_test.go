package cluster

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"waterwheel/internal/durable"
	"waterwheel/internal/ingest"
	"waterwheel/internal/model"
	"waterwheel/internal/telemetry"
)

// counterReads returns every *_total counter of the registry plus the
// always-on totals behind Stats, by name.
func counterReads(c *Cluster) map[string]float64 {
	out := map[string]float64{}
	for _, m := range c.Telemetry().Snapshot() {
		if m.Kind == "counter" && strings.HasSuffix(m.Name, "_total") {
			out[m.Name] = m.Value
		}
	}
	tot := c.Totals()
	out["Ingested()"] = float64(c.Ingested())
	out["Recovered()"] = float64(c.Recovered())
	out["Totals().Flushes"] = float64(tot.Flushes)
	out["Totals().TemplateUpdates"] = float64(tot.TemplateUpdates)
	return out
}

// TestCountersSurviveTakeover holds a counter to its name: the ingest
// counters are sums over every incarnation the process has run, so deposing
// one (a crash) or closing one (a decommission) never lowers them. They used
// to be sums over whichever incarnations served at the read: 1 000 tuples in
// two slots read waterwheel_ingest_tuples_total 1000, then 500, then 0.
func TestCountersSurviveTakeover(t *testing.T) {
	// The case is named for the takeover it runs: a cold one, with no hot
	// standby, which is the only kind a kill or crash performs.
	t.Run("HotStandby=false", func(t *testing.T) {
		cfg := testConfig() // two slots
		cfg.Telemetry = telemetry.NewRegistry()
		c := startCluster(t, cfg)
		rng := rand.New(rand.NewSource(23))
		for seq := uint64(0); seq < 1000; seq++ {
			if err := seqInsert(c, seq, model.Key(rng.Uint64())); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Drain(); err != nil {
			t.Fatal(err)
		}
		if err := c.FlushAll(); err != nil {
			t.Fatal(err)
		}
		prev := counterReads(c)
		if prev["waterwheel_ingest_tuples_total"] != 1000 || prev["waterwheel_ingest_flushes_total"] != 2 {
			t.Fatalf("before any takeover: tuples %v, flushes %v; want 1000, 2",
				prev["waterwheel_ingest_tuples_total"], prev["waterwheel_ingest_flushes_total"])
		}
		for _, step := range []struct {
			name string
			do   func() error
		}{
			{"CrashIndexServer(0)", func() error { return c.CrashIndexServer(0) }},
			{"DecommissionIndexServer(1)", func() error { return c.DecommissionIndexServer(1) }},
		} {
			if err := step.do(); err != nil {
				t.Fatalf("%s: %v", step.name, err)
			}
			now := counterReads(c)
			for name, was := range prev {
				if now[name] < was {
					t.Errorf("after %s: %s went down, %v -> %v", step.name, name, was, now[name])
				}
			}
			prev = now
		}
		// The per-server view is what it was: the one incarnation left.
		if srvs := c.IndexServers(); srvs[0] == nil || srvs[1] != nil {
			t.Fatalf("slot table after the steps: %v", srvs)
		}
		verifyExactlyOnce(t, c, 1000)
	})
}

// TestDecommissionedServerIsLetGo: the coordinator plans mem-subqueries on
// the slot table, so once a slot is decommissioned nothing answers for it
// and nothing holds its server. (The coordinator used to keep
// its own registry, which no decommission ever told: the closed server
// stayed reachable, and on the heap, for the life of the process.)
func TestDecommissionedServerIsLetGo(t *testing.T) {
	c := startCluster(t, testConfig())
	for seq := uint64(0); seq < 200; seq++ {
		if err := seqInsert(c, seq, model.Key(seq<<56)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	collected := make(chan struct{})
	func() { // the pointer must not outlive this frame
		runtime.SetFinalizer(c.server(1), func(*ingest.Server) { close(collected) })
	}()
	if err := c.DecommissionIndexServer(1); err != nil {
		t.Fatal(err)
	}
	verifyExactlyOnce(t, c, 200)

	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the decommissioned *ingest.Server is still reachable after 50 GCs")
}

// TestStopLeavesNoGoroutines drives every lifecycle edge with a writer and a
// reader running, checks that every acked tuple comes back exactly once, and
// then holds Stop (once HardCrash) to leaving no goroutine behind: consumers,
// flushers, the checkpointer and the balancer ticker all have to end.
func TestStopLeavesNoGoroutines(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cfg       func(*Config)
		stride    uint64 // inserts attempted between lifecycle steps
		hardCrash bool
	}{
		{"memory-only", func(*Config) {}, 500, false},
		// Every insert waits out an fsync here: fewer of them.
		{"DataDir+ack-on-fsync", func(cfg *Config) {
			cfg.DataDir, cfg.Durability = t.TempDir(), "ack-on-fsync"
			cfg.Files = &durable.Files{}
		}, 50, true},
		{"DataDir+interval+balancer", func(cfg *Config) {
			cfg.DataDir, cfg.Durability, cfg.FsyncIntervalMillis = t.TempDir(), "interval", 5
			cfg.BalanceIntervalMillis = 2
		}, 500, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			cfg := testConfig()
			cfg.ChunkBytes = 8 << 10 // flushes, hence checkpoints, while it runs
			tc.cfg(&cfg)
			c, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.Start()

			var (
				wg    sync.WaitGroup
				done  = make(chan struct{})
				mu    sync.Mutex
				acked = map[uint64]bool{}
				next  atomic.Uint64
			)
			wg.Add(2)
			go func() { // the writer
				defer wg.Done()
				rng := rand.New(rand.NewSource(41))
				for {
					select {
					case <-done:
						return
					default:
					}
					seq := next.Add(1)
					if seqInsert(c, seq, model.Key(rng.Uint64())) == nil {
						mu.Lock()
						acked[seq] = true
						mu.Unlock()
					}
				}
			}()
			go func() { // the reader
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					if _, err := c.Query(model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()}); err != nil {
						t.Errorf("query during lifecycle churn: %v", err)
						return
					}
					runtime.Gosched() // on one P, let the writer in between two queries
				}
			}()
			waitAttempted := func(n uint64) {
				for next.Load() < n {
					time.Sleep(200 * time.Microsecond)
				}
			}
			step := func(name string, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			waitAttempted(tc.stride)
			id, err := c.AddIndexServer()
			step("AddIndexServer", err)
			waitAttempted(2 * tc.stride)
			step("KillIndexServer", c.KillIndexServer(0))
			c.TickBalance()
			waitAttempted(3 * tc.stride)
			step("DecommissionIndexServer", c.DecommissionIndexServer(id))
			close(done)
			wg.Wait()
			step("Drain", c.Drain())

			res, err := c.Query(model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()})
			step("final query", err)
			seen := map[uint64]bool{}
			for i := range res.Tuples {
				seq := binary.BigEndian.Uint64(res.Tuples[i].Payload)
				if seen[seq] {
					t.Fatalf("seq %d returned more than once", seq)
				}
				seen[seq] = true
			}
			for seq := range acked {
				if !seen[seq] {
					t.Fatalf("acked seq %d is missing from the final query (%d acked, %d returned)", seq, len(acked), len(seen))
				}
			}

			if tc.hardCrash {
				step("HardCrash", c.HardCrash())
			} else {
				c.Stop()
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > baseline {
				buf := make([]byte, 1<<20)
				t.Fatalf("%d goroutines after the shutdown, %d before Open:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}

// TestTakeoverRacesStop: KillIndexServer races Stop. A successor installed
// after Stop's walk of the slot table would run for ever; an install that
// finds the cluster stopping is refused with ErrClosed, and every shutdown
// leaves the goroutine count where it was before Open.
func TestTakeoverRacesStop(t *testing.T) {
	rounds := 60
	if testing.Short() {
		rounds = 12
	}
	baseline := runtime.NumGoroutine()
	for r := 0; r < rounds; r++ {
		c, err := Open(testConfig()) // two slots
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		for seq := uint64(0); seq < 100; seq++ {
			if err := seqInsert(c, seq, model.Key(seq<<56)); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			check := func(what string, err error) {
				if err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("round %d: %s racing Stop: %v", r, what, err)
				}
			}
			for _, i := range []int{0, 1} {
				check("KillIndexServer", c.KillIndexServer(i))
			}
		}()
		go func() {
			defer wg.Done()
			for k := 0; k < r%8; k++ {
				runtime.Gosched()
			}
			c.Stop()
		}()
		wg.Wait()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > baseline {
			buf := make([]byte, 1<<20)
			t.Fatalf("round %d: %d goroutines after Stop, %d before Open:\n%s", r, n, baseline, buf[:runtime.Stack(buf, true)])
		}
	}
}
