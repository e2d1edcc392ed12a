package queryexec

import (
	"errors"
	"testing"

	"waterwheel/internal/meta"
	"waterwheel/internal/model"
)

// TestExecuteSubQueryRetiredChunk checks the typed retirement error: a
// subquery whose chunk file was deleted mid-flight must surface
// ErrRetired — the coordinator's signal to replan against fresh
// metadata — not a raw DFS error.
func TestExecuteSubQueryRetiredChunk(t *testing.T) {
	c := newCluster(t, 1, 1, 1)
	c.ingest(seqTuples(200, 1<<40, 1000))
	c.flushAll()
	ci, ok := c.ms.Chunk(model.ChunkID(1))
	if !ok {
		t.Fatal("chunk 1 not registered")
	}
	// Force-delete the file under the planned subquery — the window the
	// drain-safe retirer normally closes, kept open here on purpose.
	if err := c.fs.Delete(ci.Path); err != nil {
		t.Fatal(err)
	}
	c.qs[0].EvictChunk(ci.ID)
	sq := &model.SubQuery{
		QueryID: 1, Region: model.FullRegion(), Chunk: ci.ID,
		ChunkPath: ci.Path, ChunkHeaderLen: ci.HeaderLen,
	}
	_, err := c.qs[0].ExecuteSubQuery(sq)
	if !errors.Is(err, ErrRetired) {
		t.Fatalf("err = %v, want ErrRetired", err)
	}
}

// TestEvictChunkRemovesExactlyItsUnits: a chunk's cached units are its
// header and the leaves a subquery read — extents are single-flighted, never
// cached — and eviction removes those and nothing of another chunk's.
func TestEvictChunkRemovesExactlyItsUnits(t *testing.T) {
	c := newCluster(t, 1, 1, 1)
	c.ingest(seqTuples(200, 1<<40, 1000))
	c.flushAll()
	c.ingest(seqTuples(200, 1<<40, 5000))
	c.flushAll()
	qs := c.qs[0]
	leaves := map[model.ChunkID]int{}
	for _, id := range []model.ChunkID{1, 2} {
		ci, ok := c.ms.Chunk(id)
		if !ok {
			t.Fatalf("chunk %d not registered", id)
		}
		res, err := qs.ExecuteSubQuery(&model.SubQuery{
			QueryID: 1, Region: model.FullRegion(), Chunk: ci.ID,
			ChunkPath: ci.Path, ChunkHeaderLen: ci.HeaderLen,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.LeavesRead == 0 {
			t.Fatalf("chunk %d: subquery read no leaves", id)
		}
		leaves[id] = res.LeavesRead
	}
	if got, want := qs.CacheMetrics().Entries, 2+leaves[1]+leaves[2]; got != want {
		t.Fatalf("cache holds %d entries, want two headers and %d leaves", got, want-2)
	}
	if got, want := qs.EvictChunk(1), 1+leaves[1]; got != want {
		t.Errorf("EvictChunk(1) removed %d entries, want its header and %d leaves", got, want-1)
	}
	if got, want := qs.CacheMetrics().Entries, 1+leaves[2]; got != want {
		t.Errorf("after eviction the cache holds %d entries, want chunk 2's %d", got, want)
	}
	if got := qs.EvictChunk(1); got != 0 {
		t.Errorf("second EvictChunk(1) removed %d entries", got)
	}
}

// TestHeaderlessChunkIsATypedError: flush and compaction always register a
// chunk's header length, so one without it can only come from a metadata
// snapshot something else wrote. The server says so — no second read to
// guess the length, no panic — whether the subquery was planned or looks
// the chunk up itself.
func TestHeaderlessChunkIsATypedError(t *testing.T) {
	c := newCluster(t, 1, 1, 1)
	c.ingest(seqTuples(200, 1<<40, 1000))
	c.flushAll()
	ci, _ := c.ms.Chunk(model.ChunkID(1))
	foreign := ci
	foreign.HeaderLen = 0
	foreign = c.ms.RegisterChunks([]meta.ChunkInfo{foreign})[0]
	reads := c.fs.Metrics().Reads.Load()
	for name, sq := range map[string]*model.SubQuery{
		"planned":    {QueryID: 1, Region: model.FullRegion(), Chunk: foreign.ID, ChunkPath: foreign.Path},
		"hand-built": {QueryID: 2, Region: model.FullRegion(), Chunk: foreign.ID},
	} {
		if _, err := c.qs[0].ExecuteSubQuery(sq); !errors.Is(err, errNoHeaderLen) {
			t.Errorf("%s subquery: err = %v, want errNoHeaderLen", name, err)
		}
	}
	if got := c.fs.Metrics().Reads.Load(); got != reads {
		t.Errorf("the header-less chunk cost %d DFS reads, want none", got-reads)
	}
}
