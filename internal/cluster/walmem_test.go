package cluster

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"waterwheel/internal/durable"
	"waterwheel/internal/model"
	"waterwheel/internal/telemetry"
)

// walMemConfig is a one-slot cluster whose 16 KiB chunks flush every few
// hundred tuples, so a few thousand inserts drive dozens of flush commits —
// and with them dozens of WAL releases. disk selects a DataDir (segment
// files, cold reads) over the memory-only log.
func walMemConfig(t *testing.T, disk bool) Config {
	cfg := testConfig()
	cfg.Nodes = 1
	cfg.IndexServersPerNode = 1
	cfg.ChunkBytes = 16 << 10
	if disk {
		cfg.DataDir = t.TempDir()
		cfg.Files = &durable.Files{}
	}
	return cfg
}

func eachLog(t *testing.T, run func(t *testing.T, disk bool)) {
	t.Run("memory-only", func(t *testing.T) { run(t, false) })
	t.Run("disk-backed", func(t *testing.T) { run(t, true) })
}

// Sizes of the tuples seqInsertBatch writes: 8-byte payloads.
const (
	seqTupleMemBytes = 16 + 8 // what a memtable charges against ChunkBytes
	seqTupleWALBytes = 20 + 8 // the encoded record the WAL retains
	// walMemBound is the most records walMemConfig's slot can leave
	// uncommitted after a Drain: one memtable short of its threshold.
	walMemBound = 16<<10/seqTupleMemBytes + 1
)

// seqInsertBatch inserts seqs [from, from+n) in batches of size batch, keys
// spread over the key space (seq in the payload, as verifyExactlyOnce wants
// it), and returns the first rejected insert.
func seqInsertBatch(c *Cluster, from, n uint64, batch int) error {
	ts := make([]model.Tuple, 0, batch)
	for seq := from; seq < from+n; seq++ {
		ts = append(ts, model.Tuple{
			Key:     model.Key(seq * 0x9E3779B97F4A7C15),
			Time:    model.Timestamp(seq),
			Payload: binary.BigEndian.AppendUint64(nil, seq),
		})
		if len(ts) == batch || seq == from+n-1 {
			if rejected, err := c.InsertBatch(ts); err != nil {
				return fmt.Errorf("insert batch ending at seq %d: rejected %d of %d: %v", seq, len(rejected), len(ts), err)
			}
			ts = ts[:0]
		}
	}
	return nil
}

func seqBatch(t *testing.T, c *Cluster, from, n uint64, batch int) {
	t.Helper()
	if err := seqInsertBatch(c, from, n, batch); err != nil {
		t.Fatal(err)
	}
}

// walResident returns the records and payload bytes the WAL holds in
// memory, after checking the invariant a drained cluster without a lagging
// standby must meet exactly: what is resident is the uncommitted suffix.
func walResident(t *testing.T, c *Cluster) (records int, bytes int64) {
	t.Helper()
	for i := 0; i < c.WAL().Partitions(); i++ {
		p := c.WAL().Partition(i)
		if suffix := p.Next() - c.Metadata().Offset(i); int64(p.Len()) != suffix {
			t.Fatalf("partition %d holds %d records in memory; head %d - committed %d = %d uncommitted",
				i, p.Len(), p.Next(), c.Metadata().Offset(i), suffix)
		}
		records += p.Len()
		bytes += p.Bytes()
	}
	return records, bytes
}

// TestWALMemoryBoundedByUnflushedSuffix is the heap guard: after Drain the
// WAL's resident window is the unflushed suffix — at most one memtable's
// worth of tuples — whether the
// cluster ingested N tuples or 4N, one at a time or in 256-tuple batches.
// A regression to "retain everything" fails it by two orders of magnitude.
func TestWALMemoryBoundedByUnflushedSuffix(t *testing.T) {
	eachLog(t, func(t *testing.T, disk bool) {
		const n = 6000
		for _, batch := range []int{1, 256} {
			var resident [2]int
			for k, total := range []uint64{n, 4 * n} {
				c := startCluster(t, walMemConfig(t, disk))
				seqBatch(t, c, 0, total, batch)
				c.Drain()
				recs, bytes := walResident(t, c)
				if c.Metadata().ChunkCount() < int(total)/walMemBound {
					t.Fatalf("only %d chunks for %d tuples: the cluster is not flushing", c.Metadata().ChunkCount(), total)
				}
				if recs > walMemBound || bytes != int64(recs)*seqTupleWALBytes {
					t.Fatalf("batch %d, %d tuples: %d records / %d bytes resident, bound %d records of %d bytes",
						batch, total, recs, bytes, walMemBound, seqTupleWALBytes)
				}
				resident[k] = recs
				verifyExactlyOnce(t, c, total)
				c.Stop()
			}
			t.Logf("batch %d: %d resident after %d tuples, %d after %d", batch, resident[0], n, resident[1], 4*n)
		}
	})
}

// TestWALMemoryGrowsOnlyWithParkedFlusher: while every DFS write fails no
// offset commits, and the window grows by exactly the records acked since —
// the uncommitted suffix, no more. Once the flusher is released the window
// returns to the bound.
func TestWALMemoryGrowsOnlyWithParkedFlusher(t *testing.T) {
	eachLog(t, func(t *testing.T, disk bool) {
		c := startCluster(t, walMemConfig(t, disk))
		seqBatch(t, c, 0, 3000, 64)
		c.Drain()
		before, _ := walResident(t, c)
		committed := c.Metadata().Offset(0)

		// A DFS outage: every chunk write fails until it ends.
		c.FS().SetWriteFailRate(1)
		const backlog = 5000 // ten memtables: the flush queue fills, the consumer blocks
		seqBatch(t, c, 3000, backlog, 64)
		p := c.WAL().Partition(0)
		if got := c.Metadata().Offset(0); got != committed {
			t.Fatalf("offset moved %d -> %d during the outage", committed, got)
		}
		if p.Len() != before+backlog {
			t.Fatalf("window %d during the outage, want the %d resident before + the %d acked since", p.Len(), before, backlog)
		}

		c.FS().SetWriteFailRate(0)
		c.Drain()
		after, _ := walResident(t, c)
		if after > walMemBound {
			t.Fatalf("%d records resident after the flusher recovered, bound %d", after, walMemBound)
		}
		verifyExactlyOnce(t, c, 3000+backlog)
	})
}

// TestReopenLoadsOnlyTheReplayTail: a restart of a long-lived DataDir must
// not begin with the whole log on the heap — or on disk. After a clean stop
// the reopened log holds nothing the restored flush offsets cover (the
// Flush's checkpoint unlinked it), and a query still returns every tuple.
func TestReopenLoadsOnlyTheReplayTail(t *testing.T) {
	cfg := walMemConfig(t, true)
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	const k = 5000
	seqBatch(t, c, 0, k, 100)
	c.Drain()
	c.FlushAll()
	seqBatch(t, c, k, 37, 37) // an unflushed tail
	c.Drain()
	unflushed := c.MemLen()
	if unflushed == 0 || unflushed > 37 {
		t.Fatalf("test premise: %d unflushed tuples, want 1..37", unflushed)
	}
	c.Stop() // drains queued snapshots and checkpoints; the memtable is not flushed

	c2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Stop()
	p := c2.WAL().Partition(0)
	if p.Next() != k+37 || p.Base() != k {
		t.Fatalf("reopened log covers [%d, %d), want [%d, %d)", p.Base(), p.Next(), k, k+37)
	}
	if p.Len() != unflushed {
		t.Fatalf("reopened log holds %d records in memory, the replay tail is %d", p.Len(), unflushed)
	}
	c2.Start()
	c2.Drain()
	verifyExactlyOnce(t, c2, k+37)
}

// TestCrashPathsAfterRelease: every way a slot's log is read again after
// its memory was released — an in-process crash replacement, a standby
// attached late, a planned promotion — finds the records it needs (in
// memory above the commit point, in the segment or nowhere below it) and
// returns each acked tuple exactly once.
func TestCrashPathsAfterRelease(t *testing.T) {
	eachLog(t, func(t *testing.T, disk bool) {
		cfg := walMemConfig(t, disk)
		c := startCluster(t, cfg)
		var seq uint64
		more := func(n uint64) {
			seqBatch(t, c, seq, n, 50)
			seq += n
		}
		more(4000)
		c.Drain()
		if recs, _ := walResident(t, c); recs >= 4000/2 {
			t.Fatalf("test premise: %d of 4000 records still resident, nothing was released", recs)
		}

		// In-process restart: the replacement replays from the commit point.
		more(300)
		if err := c.CrashIndexServer(0); err != nil {
			t.Fatal(err)
		}
		c.Drain()
		verifyExactlyOnce(t, c, seq)

		// A standby attached after thousands of releases tails from the
		// commit point, keeps up across further commits, and takes over.
		if err := c.StartStandby(0); err != nil {
			t.Fatal(err)
		}
		more(2000)
		waitStandbyCaughtUp(t, c, 0)
		if err := c.PromoteStandby(0); err != nil {
			t.Fatal(err)
		}
		more(300)
		c.Drain()
		verifyExactlyOnce(t, c, seq)
		if n := c.IndexServers()[0].Stats().ReplayGaps.Load(); n != 0 {
			t.Fatalf("%d replay gaps", n)
		}
	})
}

// TestPromotionRacesCommits: planned promotions while a writer keeps the
// slot flushing (a commit, and with it a release, every few hundred
// tuples) and a retention loop keeps truncating. The release floor is the
// committed offset or the standby's position, whichever is lower, so no
// interleaving of commit, release and ownership flip may lose or duplicate
// an acked tuple.
func TestPromotionRacesCommits(t *testing.T) {
	eachLog(t, func(t *testing.T, disk bool) {
		cfg := walMemConfig(t, disk)
		cfg.HotStandby = true
		cfg.StandbyLagRecords = 1 << 30 // flip however far behind the standby is
		c := startCluster(t, cfg)
		var acked atomic.Uint64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for seq := uint64(0); ; seq += 20 {
				select {
				case <-stop:
					return
				default:
				}
				if err := seqInsertBatch(c, seq, 20, 20); err != nil {
					t.Error(err)
					return
				}
				acked.Store(seq + 20)
			}
		}()
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case <-time.After(2 * time.Millisecond):
				}
				c.Checkpoint() // with a log on disk: truncates it behind the snapshot
			}
		}()
		rounds := 6
		if testing.Short() {
			rounds = 3
		}
		for i := 0; i < rounds; i++ {
			for acked.Load() < uint64(i+1)*1000 {
				time.Sleep(200 * time.Microsecond)
			}
			if err := c.PromoteStandby(0); err != nil {
				t.Error(err)
				break
			}
		}
		close(stop)
		wg.Wait()
		c.Drain()
		verifyExactlyOnce(t, c, acked.Load())
		if n := c.IndexServers()[0].Stats().ReplayGaps.Load(); n != 0 {
			t.Fatalf("%d replay gaps", n)
		}
	})
}

// TestHardCrashAfterReleaseReplaysFromSegment: under ack-on-fsync a host
// crash restores the last checkpoint's offsets, which are OLDER than the
// commits that released the WAL's memory since. Those records must come
// back from the segment file: releasing never touches it.
func TestHardCrashAfterReleaseReplaysFromSegment(t *testing.T) {
	cfg := walMemConfig(t, true)
	cfg.Durability = "ack-on-fsync"
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	seqBatch(t, c, 0, 2000, 100)
	c.Drain()
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ckpt := c.Metadata().Offset(0)
	seqBatch(t, c, 2000, 3000, 100) // flushed and released, never checkpointed
	c.Drain()
	p := c.WAL().Partition(0)
	if committed := c.Metadata().Offset(0); committed <= ckpt || p.Base() > ckpt {
		t.Fatalf("test premise: checkpoint %d, committed %d, log horizon %d", ckpt, committed, p.Base())
	}
	if int64(p.Len()) >= p.Next()-ckpt {
		t.Fatalf("test premise: %d records resident, nothing above the checkpoint was released", p.Len())
	}
	if err := c.HardCrash(); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Stop()
	if got := c2.Metadata().Offset(0); got != ckpt {
		t.Fatalf("restored offset %d, want the checkpoint's %d", got, ckpt)
	}
	c2.Start()
	c2.Drain()
	verifyExactlyOnce(t, c2, 5000)
}

// TestWALMemoryGauges moves waterwheel_wal_memory_records/_bytes: they
// follow the resident window up while nothing commits and back down when a
// flush commit releases it; the replay-gap counter stays at zero.
func TestWALMemoryGauges(t *testing.T) {
	cfg := walMemConfig(t, true)
	cfg.ChunkBytes = 1 << 20 // nothing flushes by itself
	cfg.Telemetry = telemetry.NewRegistry()
	c := startCluster(t, cfg)
	read := func(name string) float64 {
		for _, m := range cfg.Telemetry.Snapshot() {
			if m.Name == name {
				return m.Value
			}
		}
		t.Fatalf("metric %s not registered", name)
		return 0
	}
	seqBatch(t, c, 0, 1000, 100)
	c.Drain()
	if recs, bytes := read("waterwheel_wal_memory_records"), read("waterwheel_wal_memory_bytes"); recs != 1000 || bytes != 1000*seqTupleWALBytes {
		t.Fatalf("1000 unflushed tuples: gauges read %v records / %v bytes, want 1000 / %d", recs, bytes, 1000*seqTupleWALBytes)
	}
	c.FlushAll()
	c.Drain()
	if recs, bytes := read("waterwheel_wal_memory_records"), read("waterwheel_wal_memory_bytes"); recs != 0 || bytes != 0 {
		t.Fatalf("after the flush committed: gauges read %v records / %v bytes, want 0 / 0", recs, bytes)
	}
	if gaps := read("waterwheel_ingest_replay_gaps_total"); gaps != 0 {
		t.Fatalf("replay gaps = %v", gaps)
	}
}
