package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"waterwheel/internal/meta"
	"waterwheel/internal/model"
	"waterwheel/internal/wal"
)

// elasticConfig is a WAL-mode cluster with hot standbys on every slot —
// the topology the elastic ops run against.
func elasticConfig() Config {
	cfg := testConfig()
	cfg.Nodes = 2
	cfg.IndexServersPerNode = 2
	cfg.HotStandby = true
	return cfg
}

// seqInsert acks one tuple carrying seq in its payload and returns the
// insert error.
func seqInsert(c *Cluster, seq uint64, key model.Key) error {
	payload := make([]byte, 8)
	binary.BigEndian.PutUint64(payload, seq)
	return c.Insert(model.Tuple{Key: key, Time: model.Timestamp(seq), Payload: payload})
}

// verifyExactlyOnce queries the full region and checks that exactly the
// acked sequence numbers [0, n) come back, each exactly once — the
// "every acked tuple owned by exactly one server" invariant: a tuple
// double-owned after a botched handoff surfaces as a duplicate, a tuple
// owned by nobody as a gap.
func verifyExactlyOnce(t *testing.T, c *Cluster, n uint64) {
	t.Helper()
	res, err := c.Query(model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()})
	if err != nil {
		t.Fatalf("full-region query: %v", err)
	}
	seen := make(map[uint64]bool, len(res.Tuples))
	for i := range res.Tuples {
		seq := binary.BigEndian.Uint64(res.Tuples[i].Payload)
		if seq >= n {
			t.Fatalf("unknown seq %d returned (acked %d)", seq, n)
		}
		if seen[seq] {
			t.Fatalf("seq %d returned more than once: two servers own it", seq)
		}
		seen[seq] = true
	}
	if uint64(len(seen)) != n {
		t.Fatalf("query returned %d distinct acked tuples, want %d", len(seen), n)
	}
}

func TestAddIndexServerGrowsCluster(t *testing.T) {
	c := startCluster(t, elasticConfig())
	var seq uint64
	rng := rand.New(rand.NewSource(7))
	for ; seq < 2000; seq++ {
		if err := seqInsert(c, seq, model.Key(rng.Uint64())); err != nil {
			t.Fatal(err)
		}
	}
	before := len(c.ActiveSlots())
	id, err := c.AddIndexServer()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.ActiveSlots()); got != before+1 {
		t.Fatalf("active slots after add: %d, want %d", got, before+1)
	}
	if kr := c.Metadata().Schema().IntervalOf(id); kr.Hi <= kr.Lo {
		t.Fatalf("new slot %d got empty interval %v", id, kr)
	}
	// Tuples inserted after the split route into the new slot's region too.
	for ; seq < 4000; seq++ {
		if err := seqInsert(c, seq, model.Key(rng.Uint64())); err != nil {
			t.Fatal(err)
		}
	}
	c.Drain()
	verifyExactlyOnce(t, c, seq)
	if got := c.IndexServers()[id]; got == nil {
		t.Fatalf("slot %d has no server", id)
	}
}

func TestDecommissionIndexServerDrainsOut(t *testing.T) {
	c := startCluster(t, elasticConfig())
	var seq uint64
	rng := rand.New(rand.NewSource(8))
	for ; seq < 2000; seq++ {
		if err := seqInsert(c, seq, model.Key(rng.Uint64())); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.DecommissionIndexServer(1); err != nil {
		t.Fatal(err)
	}
	if c.IndexServers()[1] != nil {
		t.Fatal("retired slot still has a live server")
	}
	if c.Metadata().Schema().Active(1) {
		t.Fatal("retired slot still active in the schema")
	}
	// Stragglers and new inserts reroute through the merged schema.
	for ; seq < 4000; seq++ {
		if err := seqInsert(c, seq, model.Key(rng.Uint64())); err != nil {
			t.Fatal(err)
		}
	}
	c.Drain()
	verifyExactlyOnce(t, c, seq)
}

// TestKillIndexServerFencesDeposedOwner is the regression test for the
// replay/ownership race: KillIndexServer must bump the slot's fencing
// epoch BEFORE the replacement starts registering regions, so a deposed
// owner's in-flight flush — however delayed — can never re-register
// chunks or move the committed offset under the new owner. The test
// proves the fence at the metadata layer: a registration carrying the
// deposed epoch is rejected with ErrFenced even after the takeover is
// long done.
func TestKillIndexServerFencesDeposedOwner(t *testing.T) {
	c := startCluster(t, elasticConfig())
	var seq uint64
	rng := rand.New(rand.NewSource(9))
	for ; seq < 1000; seq++ {
		if err := seqInsert(c, seq, model.Key(rng.Uint64())); err != nil {
			t.Fatal(err)
		}
	}
	ms := c.Metadata()
	deposed := ms.Epoch(0)
	offBefore := ms.Offset(0)
	if err := c.KillIndexServer(0); err != nil {
		t.Fatal(err)
	}
	if got := ms.Epoch(0); got <= deposed {
		t.Fatalf("epoch after takeover: %d, want > %d", got, deposed)
	}
	// The deposed owner tries to commit a flush it had in flight.
	_, err := ms.RegisterFlushOwned(0, deposed, []meta.ChunkInfo{}, offBefore+1)
	if !errors.Is(err, meta.ErrFenced) {
		t.Fatalf("deposed-epoch registration: err = %v, want ErrFenced", err)
	}
	// The slot keeps working under its new owner.
	for ; seq < 2000; seq++ {
		if err := seqInsert(c, seq, model.Key(rng.Uint64())); err != nil {
			t.Fatal(err)
		}
	}
	c.Drain()
	verifyExactlyOnce(t, c, seq)
}

// TestHandoffLinearizability is the property test: a sustained insert
// stream races randomly timed kills, planned handoffs, splits and
// decommissions, and at every point each acked tuple must be owned by
// exactly one server — proven by the exactly-once full-region check —
// with fencing epochs strictly increasing across every takeover.
func TestHandoffLinearizability(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			c := startCluster(t, elasticConfig())
			const total = 6000
			var acked atomic.Uint64
			var insertErr atomic.Value
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed * 31))
				for seq := uint64(0); seq < total; seq++ {
					if err := seqInsert(c, seq, model.Key(rng.Uint64())); err != nil {
						insertErr.Store(fmt.Errorf("seq %d: %w", seq, err))
						return
					}
					acked.Store(seq + 1)
				}
			}()
			// Topology churn at random points while the stream runs.
			rng := rand.New(rand.NewSource(seed * 77))
			epochs := map[int]int64{}
			for step := 0; step < 8 && acked.Load() < total; step++ {
				time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
				slots := c.ActiveSlots()
				slot := slots[rng.Intn(len(slots))]
				before := c.Metadata().Epoch(slot)
				switch action := rng.Intn(10); {
				case action < 4: // kill: standby takeover at an arbitrary lag
					if err := c.KillIndexServer(slot); err != nil {
						t.Errorf("kill slot %d: %v", slot, err)
					}
				case action < 7: // planned handoff: lag-bounded flip
					if err := c.PromoteStandby(slot); err != nil {
						t.Errorf("promote slot %d: %v", slot, err)
					}
				case action < 9 && len(slots) < 7: // split the widest interval
					if _, err := c.AddIndexServer(); err != nil {
						t.Errorf("add server: %v", err)
					}
					continue
				case len(slots) > 2: // retire a slot mid-stream
					if err := c.DecommissionIndexServer(slot); err != nil {
						t.Errorf("decommission slot %d: %v", slot, err)
					}
					continue
				default:
					continue
				}
				after := c.Metadata().Epoch(slot)
				if after <= before {
					t.Errorf("slot %d epoch did not advance across handoff: %d -> %d",
						slot, before, after)
				}
				if prev, ok := epochs[slot]; ok && after <= prev {
					t.Errorf("slot %d epoch regressed: %d -> %d", slot, prev, after)
				}
				epochs[slot] = after
			}
			wg.Wait()
			if err := insertErr.Load(); err != nil {
				t.Fatalf("insert failed mid-stream: %v", err)
			}
			c.Drain()
			verifyExactlyOnce(t, c, acked.Load())
		})
	}
}

// TestCoordinatorRestartFromMetadata: the coordinator must be fully
// restartable from serialized metadata alone — mid-run, after elastic
// churn. The test checkpoints after a handoff and a split, reopens a
// fresh cluster from the directory, and requires identical query results,
// surviving fencing epochs, and a working subsequent handoff.
func TestCoordinatorRestartFromMetadata(t *testing.T) {
	dir := t.TempDir()
	cfg := elasticConfig()
	cfg.DataDir = dir
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	var seq uint64
	rng := rand.New(rand.NewSource(11))
	for ; seq < 2000; seq++ {
		if err := seqInsert(c, seq, model.Key(rng.Uint64())); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.PromoteStandby(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddIndexServer(); err != nil {
		t.Fatal(err)
	}
	for ; seq < 3000; seq++ {
		if err := seqInsert(c, seq, model.Key(rng.Uint64())); err != nil {
			t.Fatal(err)
		}
	}
	c.Drain()
	// Serialize the coordinator's entire state mid-run.
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	epoch0 := c.Metadata().Epoch(0)
	if epoch0 < 2 {
		t.Fatalf("epoch after handoff: %d, want >= 2", epoch0)
	}
	schemaVersion := c.Metadata().Schema().Version
	nSlots := len(c.ActiveSlots())
	c.Stop()

	// A fresh coordinator built from metadata alone.
	c2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c2.Start()
	defer c2.Stop()
	c2.Drain()
	// Open claims every slot the way a crash replacement does, in a new
	// epoch generation.
	if got := c2.Metadata().Epoch(0); got <= epoch0 || got>>32 != epoch0>>32+1 {
		t.Errorf("epoch 0 after restart: %#x, want the first of the generation after %#x", got, epoch0)
	}
	epoch0 = c2.Metadata().Epoch(0)
	if got := c2.Metadata().Schema().Version; got != schemaVersion {
		t.Errorf("schema version after restart: %d, want %d", got, schemaVersion)
	}
	if got := len(c2.ActiveSlots()); got != nSlots {
		t.Errorf("active slots after restart: %d, want %d", got, nSlots)
	}
	verifyExactlyOnce(t, c2, seq)
	// The restored coordinator performs the next handoff like the old one.
	if err := c2.PromoteStandby(0); err != nil {
		t.Fatalf("handoff after restart: %v", err)
	}
	if got := c2.Metadata().Epoch(0); got <= epoch0 {
		t.Errorf("epoch after post-restart handoff: %d, want > %d", got, epoch0)
	}
	for ; seq < 4000; seq++ {
		if err := seqInsert(c2, seq, model.Key(rng.Uint64())); err != nil {
			t.Fatal(err)
		}
	}
	c2.Drain()
	verifyExactlyOnce(t, c2, seq)
}

// TestPromotionKeepsOnlyWhatTheShadowKept: a standby that had replayed its
// slot's tuples and was then overtaken by the owner's flush commit holds
// nothing, neither those tuples nor their counts. Promoted, it serves none
// of them a second time, and the ingest total counts each once.
func TestPromotionKeepsOnlyWhatTheShadowKept(t *testing.T) {
	cfg := testConfig() // two slots
	cfg.HotStandby = true
	c := startCluster(t, cfg)
	const n = 1000
	for seq := uint64(0); seq < n; seq++ {
		if err := seqInsert(c, seq, model.Key(seq<<52)); err != nil {
			t.Fatal(err)
		}
	}
	slots := c.ActiveSlots()
	for _, i := range slots {
		waitStandbyCaughtUp(t, c, i) // the shadow holds its slot's share
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for _, i := range slots {
		if err := c.AwaitStandby(i, wal.Deadline(5*time.Second)); err != nil {
			t.Fatal(err)
		}
		if err := c.PromoteStandby(i); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Totals().Ingested; got != n {
		t.Fatalf("Totals().Ingested = %d after the promotions, want %d", got, n)
	}
	verifyExactlyOnce(t, c, n)
}
