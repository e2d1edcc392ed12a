package meta

import (
	"testing"

	"waterwheel/internal/model"
)

func region(k0, k1 uint64, t0, t1 int64) model.Region {
	return model.Region{
		Keys:  model.KeyRange{Lo: model.Key(k0), Hi: model.Key(k1)},
		Times: model.TimeRange{Lo: model.Timestamp(t0), Hi: model.Timestamp(t1)},
	}
}

func TestEvenSchemaRouting(t *testing.T) {
	s := EvenSchema(4)
	if s.Servers != 4 || len(s.Bounds) != 3 {
		t.Fatalf("schema %+v", s)
	}
	// Intervals tile the domain without gaps or overlaps.
	for i := 0; i < 4; i++ {
		iv := s.IntervalOf(i)
		if s.ServerFor(iv.Lo) != i || s.ServerFor(iv.Hi) != i {
			t.Errorf("server %d interval %v routes to %d/%d", i, iv, s.ServerFor(iv.Lo), s.ServerFor(iv.Hi))
		}
	}
	if s.IntervalOf(0).Lo != 0 || s.IntervalOf(3).Hi != model.MaxKey {
		t.Error("outer intervals don't reach domain edges")
	}
	if s.IntervalOf(0).Hi+1 != s.IntervalOf(1).Lo {
		t.Error("adjacent intervals not contiguous")
	}
}

func TestEvenSchemaSingleServer(t *testing.T) {
	s := EvenSchema(1)
	if s.IntervalOf(0) != model.FullKeyRange() {
		t.Errorf("single server interval = %v", s.IntervalOf(0))
	}
	if s.ServerFor(12345) != 0 {
		t.Error("routing broken")
	}
}

func TestSetSchemaValidation(t *testing.T) {
	srv := NewServer(3)
	if _, err := srv.SetSchema([]model.Key{100}); err == nil {
		t.Error("wrong bound count accepted")
	}
	if _, err := srv.SetSchema([]model.Key{200, 100}); err == nil {
		t.Error("descending bounds accepted")
	}
	sc, err := srv.SetSchema([]model.Key{100, 200})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Version != 2 {
		t.Errorf("version = %d, want 2", sc.Version)
	}
}

func TestChunkRegistryAndSearch(t *testing.T) {
	srv := NewServer(2)
	c1 := srv.RegisterChunks([]ChunkInfo{{Path: "c1", Region: region(0, 100, 0, 10), Count: 5}})[0]
	c2 := srv.RegisterChunks([]ChunkInfo{{Path: "c2", Region: region(200, 300, 0, 20), Count: 7}})[0]
	if c1.ID == 0 || c2.ID == 0 || c1.ID == c2.ID {
		t.Fatalf("ids %d, %d", c1.ID, c2.ID)
	}
	got, ok := srv.Chunk(c1.ID)
	if !ok || got.Path != "c1" {
		t.Fatalf("Chunk = %+v, %v", got, ok)
	}
	hits := srv.ChunksFor(region(50, 250, 5, 6))
	if len(hits) != 2 {
		t.Fatalf("ChunksFor = %d chunks", len(hits))
	}
	hits = srv.ChunksFor(region(50, 60, 5, 6))
	if len(hits) != 1 || hits[0].Path != "c1" {
		t.Fatalf("narrow ChunksFor = %+v", hits)
	}
	hits = srv.ChunksFor(region(50, 250, 50, 60))
	if len(hits) != 0 {
		t.Fatalf("time-disjoint ChunksFor = %+v", hits)
	}
	if srv.ChunkCount() != 2 {
		t.Errorf("count = %d", srv.ChunkCount())
	}
	if got := srv.DropChunksBefore(11); len(got) != 1 || got[0].ID != c1.ID || srv.DropChunksBefore(11) != nil {
		t.Error("DropChunksBefore semantics wrong")
	}
	if len(srv.ChunksFor(region(0, 1000, 0, 100))) != 1 {
		t.Error("dropped chunk still searchable")
	}
}

func TestOffsets(t *testing.T) {
	srv := NewServer(3)
	srv.RegisterFlushOwned(1, srv.Epoch(1), nil, 4242)
	if srv.Offset(1) != 4242 || srv.Offset(0) != 0 {
		t.Error("offset storage broken")
	}
	if srv.Offset(-1) != 0 || srv.Offset(99) != 0 {
		t.Error("out-of-range offsets should read 0")
	}
}

// TestQueryRegistry: a running query is its ID and its plan horizon — the
// first chunk ID its plan cannot hold — and MinQueryAsOf is the smallest
// horizon still running.
func TestQueryRegistry(t *testing.T) {
	srv := NewServer(1)
	if srv.MinQueryAsOf() != ^uint64(0) {
		t.Fatal("an idle server pins flushed snapshots")
	}
	q1 := srv.RegisterQuery(model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()})
	srv.RegisterChunks([]ChunkInfo{{Path: "c", Region: region(0, 1, 0, 1)}})
	q2 := srv.RegisterQuery(model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()})
	if q1.ID == q2.ID || q1.ID == 0 {
		t.Fatalf("ids %d, %d", q1.ID, q2.ID)
	}
	if got := srv.MinQueryAsOf(); got != 1 {
		t.Fatalf("MinQueryAsOf = %d, want q1's horizon 1", got)
	}
	srv.CompleteQuery(q1.ID)
	if got := srv.MinQueryAsOf(); got != 2 {
		t.Fatalf("MinQueryAsOf after q1 = %d, want q2's horizon 2", got)
	}
	if got := srv.OldestActiveQuery(); got != q2.ID {
		t.Fatalf("oldest = %d, want %d", got, q2.ID)
	}
}

func TestSnapshotRestore(t *testing.T) {
	srv := NewServer(3)
	srv.SetSchema([]model.Key{1000, 2000})
	c := srv.RegisterChunks([]ChunkInfo{{Path: "p", Region: region(0, 10, 0, 10), Count: 3, Size: 99, Server: 1}})[0]
	srv.RegisterFlushOwned(2, srv.Epoch(2), nil, 555)
	q := srv.RegisterQuery(model.Query{Keys: model.KeyRange{Lo: 1, Hi: 2}, Times: model.TimeRange{Lo: 3, Hi: 4}})

	data, err := srv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Restore(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema().Version != srv.Schema().Version || len(got.Schema().Bounds) != 2 {
		t.Errorf("schema mismatch: %+v", got.Schema())
	}
	if got.Offset(2) != 555 {
		t.Errorf("offset lost")
	}
	if gc, ok := got.Chunk(c.ID); !ok || gc.Path != "p" || gc.Size != 99 {
		t.Errorf("chunk lost: %+v %v", gc, ok)
	}
	if hits := got.ChunksFor(region(5, 6, 5, 6)); len(hits) != 1 {
		t.Errorf("restored R-tree broken: %d hits", len(hits))
	}
	// The query ran in the process that took the snapshot, not in this one:
	// nothing it planned pins a snapshot or a retired file here.
	if got.OldestActiveQuery() != ^uint64(0) || got.MinQueryAsOf() != ^uint64(0) {
		t.Errorf("query %d restored as running: oldest %d, horizon %d", q.ID, got.OldestActiveQuery(), got.MinQueryAsOf())
	}
	// IDs keep increasing after restore.
	c2 := got.RegisterChunks([]ChunkInfo{{Path: "p2", Region: region(0, 1, 0, 1)}})[0]
	if c2.ID <= c.ID {
		t.Errorf("chunk id reused: %d <= %d", c2.ID, c.ID)
	}
}

// TestRestoreKeepsChunkIDGaps: Restore files every saved chunk under the ID
// it was saved with — a chunk's ID names it in plans, caches and pending
// snapshots — so a drop's gap survives, and the next registration takes an
// ID above every saved one.
func TestRestoreKeepsChunkIDGaps(t *testing.T) {
	srv := NewServer(1)
	regs := srv.RegisterChunks([]ChunkInfo{
		{Path: "a", Region: region(0, 10, 0, 10)},
		{Path: "b", Region: region(20, 30, 0, 5)},
		{Path: "c", Region: region(40, 50, 0, 10)},
	})
	if regs[0].ID != 1 || regs[1].ID != 2 || regs[2].ID != 3 {
		t.Fatalf("registered ids %d, %d, %d", regs[0].ID, regs[1].ID, regs[2].ID)
	}
	if got := srv.DropChunksBefore(6); len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("DropChunksBefore dropped %+v, want b", got)
	}
	data, err := srv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Restore(data)
	if err != nil {
		t.Fatal(err)
	}
	for id, path := range map[model.ChunkID]string{1: "a", 3: "c"} {
		if ci, ok := got.Chunk(id); !ok || ci.Path != path || ci.ID != id {
			t.Errorf("chunk %d restored as %+v (present=%v), want %q", id, ci, ok, path)
		}
	}
	if _, ok := got.Chunk(2); ok || got.ChunkCount() != 2 {
		t.Errorf("restored %d chunks, dropped chunk 2 present=%v", got.ChunkCount(), ok)
	}
	if hits := got.ChunksFor(region(45, 45, 5, 5)); len(hits) != 1 || hits[0].ID != 3 {
		t.Errorf("the R-tree files chunk c as %+v", hits)
	}
	if c := got.RegisterChunks([]ChunkInfo{{Path: "d", Region: region(0, 1, 0, 1)}})[0]; c.ID != 4 {
		t.Errorf("next chunk id = %d, want 4", c.ID)
	}
}

func TestQueryHorizonAndOldestActive(t *testing.T) {
	s := NewServer(1)
	if s.OldestActiveQuery() != ^uint64(0) {
		t.Fatal("idle server has an active query")
	}
	q1 := s.RegisterQuery(model.Query{})
	q2 := s.RegisterQuery(model.Query{})
	if s.QueryHorizon() != q2.ID {
		t.Fatalf("horizon = %d, want %d", s.QueryHorizon(), q2.ID)
	}
	if s.OldestActiveQuery() != q1.ID {
		t.Fatalf("oldest = %d, want %d", s.OldestActiveQuery(), q1.ID)
	}
	s.CompleteQuery(q1.ID)
	if s.OldestActiveQuery() != q2.ID {
		t.Fatalf("oldest after completion = %d, want %d", s.OldestActiveQuery(), q2.ID)
	}
	s.CompleteQuery(q2.ID)
	if s.OldestActiveQuery() != ^uint64(0) {
		t.Fatal("queries still active after completion")
	}
}
