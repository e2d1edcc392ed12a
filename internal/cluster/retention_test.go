package cluster

import (
	"testing"
	"time"

	"waterwheel/internal/model"
	"waterwheel/internal/wal"
)

// waitStandbyCaughtUp waits until slot i's standby has replayed to the
// partition head.
func waitStandbyCaughtUp(t *testing.T, c *Cluster, i int) {
	t.Helper()
	h := c.standby(i)
	if err := h.srv.WaitApplied(c.log.Partition(i).Next(), wal.Deadline(5*time.Second)); err != nil {
		t.Fatalf("standby %d never caught up (at %d): %v", i, h.srv.Consumed(), err)
	}
}

// haltStandby freezes slot i's standby at its current replay position:
// its consumer returns, so the position neither advances nor resets on a
// later commit. The handle stays installed, so the truncation floor and
// a later promotion still see it — this is the "standby fell behind"
// state the truncation race needs.
func haltStandby(c *Cluster, i int) int64 {
	h := c.standby(i)
	h.halt()
	return h.srv.Consumed()
}

// TestTruncateFloorsAtStandbyReplay is the regression test for the
// drop/truncate race of delete-only retention: WAL truncation used to
// advance straight to the committed flush offset, compacting records a
// lagging standby had not replayed yet. The truncation horizon must be
// floored at the standby's replay position so a promotion can always
// replay forward from it without a gap.
func TestTruncateFloorsAtStandbyReplay(t *testing.T) {
	cfg := testConfig()
	cfg.Nodes = 1
	cfg.IndexServersPerNode = 1
	cfg.DataDir = t.TempDir() // a log on disk: what a checkpoint truncates
	c := startCluster(t, cfg)
	if err := c.StartStandby(0); err != nil {
		t.Fatal(err)
	}
	var seq uint64
	for ; seq < 500; seq++ {
		if err := seqInsert(c, seq, model.Key(seq)); err != nil {
			t.Fatal(err)
		}
	}
	waitStandbyCaughtUp(t, c, 0)
	pos := haltStandby(c, 0)
	if pos <= 0 {
		t.Fatalf("standby froze at %d, want > 0", pos)
	}
	// More acked records, flushed: the committed offset moves past the
	// frozen standby.
	for ; seq < 1000; seq++ {
		if err := seqInsert(c, seq, model.Key(seq)); err != nil {
			t.Fatal(err)
		}
	}
	c.Drain() // consumer catches up before the forced flush
	c.FlushAll()
	c.Drain()
	if off := c.Metadata().Offset(0); off <= pos {
		t.Fatalf("flush offset %d did not pass the standby position %d", off, pos)
	}
	if fl := c.replayFloor(0, c.Metadata().Offset(0)); fl != pos {
		t.Fatalf("replayFloor = %d, want the standby's frozen position %d", fl, pos)
	}
	if err := c.Checkpoint(); err != nil { // FlushAll took one already; either truncates
		t.Fatal(err)
	}
	if base := c.WAL().Partition(0).Base(); base > pos {
		t.Fatalf("truncation compacted past the standby: base %d > replay position %d", base, pos)
	}
}

// TestPromoteAfterTruncateKeepsAckedTuples drives the full race end to
// end: a standby falls behind, the WAL is truncated, the standby is
// promoted — and every acked tuple must still come back exactly once.
func TestPromoteAfterTruncateKeepsAckedTuples(t *testing.T) {
	cfg := testConfig()
	cfg.Nodes = 1
	cfg.IndexServersPerNode = 1
	// Let the planned handoff proceed however far behind the standby is —
	// the point of the test is promoting a lagging shadow.
	cfg.StandbyLagRecords = 1 << 30
	cfg.DataDir = t.TempDir()
	c := startCluster(t, cfg)
	if err := c.StartStandby(0); err != nil {
		t.Fatal(err)
	}
	var seq uint64
	for ; seq < 500; seq++ {
		if err := seqInsert(c, seq, model.Key(seq)); err != nil {
			t.Fatal(err)
		}
	}
	waitStandbyCaughtUp(t, c, 0)
	haltStandby(c, 0)
	for ; seq < 1000; seq++ {
		if err := seqInsert(c, seq, model.Key(seq)); err != nil {
			t.Fatal(err)
		}
	}
	c.Drain()
	c.FlushAll() // ends with a checkpoint, which truncates the log
	c.Drain()
	if err := c.PromoteStandby(0); err != nil {
		t.Fatal(err)
	}
	c.Drain()
	verifyExactlyOnce(t, c, seq)
}

// TestDropChunksBeforeDrainSafe checks the retirement protocol: dropping
// a chunk removes it from metadata immediately, but its file stays on
// the DFS until every query that could have planned it completes — then
// one sweep deletes it.
func TestDropChunksBeforeDrainSafe(t *testing.T) {
	cfg := testConfig()
	cfg.ChunkBytes = 4 << 10
	c := startCluster(t, cfg)
	for i := 0; i < 3000; i++ {
		c.Insert(model.Tuple{Key: model.Key(uint64(i) << 44), Time: model.Timestamp(i)})
	}
	c.Drain()
	chunks := c.Metadata().ChunksFor(model.FullRegion())
	if len(chunks) == 0 {
		t.Fatal("no chunks flushed")
	}
	// An in-flight query that could have planned any of those chunks.
	q := c.Metadata().RegisterQuery(model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()})
	n := c.DropChunksBefore(model.Timestamp(1 << 40))
	if n != len(chunks) {
		t.Fatalf("dropped %d chunks, want %d", n, len(chunks))
	}
	if c.Metadata().ChunkCount() != 0 {
		t.Fatal("dropped chunks still registered")
	}
	if got := c.ret.pending(); got != n {
		t.Fatalf("%d deletes pending, want %d (parked behind the active query)", got, n)
	}
	// The files are still readable while the query is in flight.
	for _, ci := range chunks {
		if _, err := c.FS().Read(ci.Path); err != nil {
			t.Fatalf("retired chunk %s deleted under an active query: %v", ci.Path, err)
		}
	}
	c.Metadata().CompleteQuery(q.ID)
	c.Drain() // sweeps the retirement queue
	if got := c.ret.pending(); got != 0 {
		t.Fatalf("%d deletes still pending after drain", got)
	}
	for _, ci := range chunks {
		if _, err := c.FS().Read(ci.Path); err == nil {
			t.Fatalf("retired chunk %s survived the sweep", ci.Path)
		}
	}
}

// TestRetentionAfterDecommission exercises retention, compaction and
// queries against a slot table with a retired (nil) slot — every
// IndexServers() consumer has to honor the nil-slot contract.
func TestRetentionAfterDecommission(t *testing.T) {
	cfg := elasticConfig()
	cfg.ChunkBytes = 8 << 10
	// Demote-only thresholds: everything but the newest chunk turns warm,
	// nothing reaches cold, so retention still sees the original chunks.
	cfg.TierWarmAfterMillis = 1
	cfg.TierColdAfterMillis = 1 << 40
	c := startCluster(t, cfg)
	var seq uint64
	for ; seq < 3000; seq++ {
		if err := seqInsert(c, seq, model.Key(seq<<44)); err != nil {
			t.Fatal(err)
		}
	}
	c.Drain()
	c.FlushAll()
	c.Drain()
	if err := c.DecommissionIndexServer(1); err != nil {
		t.Fatal(err)
	}
	if c.IndexServers()[1] != nil {
		t.Fatal("retired slot still has a live server")
	}
	// Compaction demotes and merges with a nil slot in the table.
	demoted, _ := c.TickCompact()
	if demoted == 0 {
		t.Fatal("nothing demoted despite 1ms tier thresholds")
	}
	// Retention drops the chunks wholly below the horizon.
	if n := c.DropChunksBefore(1026); n == 0 {
		t.Fatal("retention dropped nothing")
	}
	// Queries still answer correctly over the remaining data — dropped
	// chunks held only tuples below the horizon.
	res, err := c.Query(model.Query{Keys: model.FullKeyRange(), Times: model.TimeRange{Lo: 1026, Hi: 2999}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 1974 {
		t.Fatalf("got %d tuples, want 1974", len(res.Tuples))
	}
}
