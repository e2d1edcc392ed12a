package cluster

import (
	"testing"

	"waterwheel/internal/model"
)

// TestKillAfterTruncateKeepsAckedTuples: the log is truncated at the
// committed offset while acked records above it are in no chunk yet; a
// kill's successor replays from that offset, and every acked tuple comes
// back exactly once.
func TestKillAfterTruncateKeepsAckedTuples(t *testing.T) {
	cfg := testConfig()
	cfg.Nodes = 1
	cfg.IndexServersPerNode = 1
	cfg.DataDir = t.TempDir() // a log on disk: what a checkpoint truncates
	c := startCluster(t, cfg)
	var seq uint64
	for ; seq < 500; seq++ {
		if err := seqInsert(c, seq, model.Key(seq)); err != nil {
			t.Fatal(err)
		}
	}
	c.Drain()
	c.FlushAll() // ends with a checkpoint, which truncates the log
	for ; seq < 1000; seq++ {
		if err := seqInsert(c, seq, model.Key(seq)); err != nil {
			t.Fatal(err)
		}
	}
	c.Drain()
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	committed := c.Metadata().Offset(0)
	if committed <= 0 || committed >= c.WAL().Partition(0).Next() {
		t.Fatalf("committed offset %d: want acked records on both sides of it (head %d)",
			committed, c.WAL().Partition(0).Next())
	}
	if base := c.WAL().Partition(0).Base(); base != committed {
		t.Fatalf("log truncated at %d, want the committed offset %d", base, committed)
	}
	if err := c.KillIndexServer(0); err != nil {
		t.Fatal(err)
	}
	for ; seq < 1200; seq++ {
		if err := seqInsert(c, seq, model.Key(seq)); err != nil {
			t.Fatal(err)
		}
	}
	c.Drain()
	verifyExactlyOnce(t, c, seq)
	if gaps := c.Totals().ReplayGaps; gaps != 0 {
		t.Fatalf("successor hit %d replay gaps", gaps)
	}
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

// TestRetentionAfterDecommission exercises retention and queries against a
// slot table with a retired (nil) slot — every IndexServers() consumer has
// to honor the nil-slot contract.
func TestRetentionAfterDecommission(t *testing.T) {
	cfg := elasticConfig()
	cfg.ChunkBytes = 8 << 10
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
