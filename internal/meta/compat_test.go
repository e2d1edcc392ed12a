package meta

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"reflect"
	"testing"

	"waterwheel/internal/model"
)

// TestRestoreSnapshotWithFormatField hands Restore a meta.snap written by
// commit 0913109: a gob image, whose ChunkInfo still carried a Format field.
// The registry is a journal of versioned JSON records now, and a gob image
// fails the version check with the typed error — it is not misread. The
// chunks it holds are asserted to round-trip through the current image.
func TestRestoreSnapshotWithFormatField(t *testing.T) {
	data, err := os.ReadFile("testdata/pr13_format_field.snap")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(data); !errors.Is(err, ErrVersion) {
		t.Fatalf("Restore of a gob image: %v, want ErrVersion", err)
	}
	if _, err := decode(data); !errors.Is(err, ErrVersion) {
		t.Fatalf("a gob image read as a journal record: %v, want ErrVersion", err)
	}
	want := []ChunkInfo{
		{ID: 1, Path: "chunk-s0-000001", Region: region(0, 999, 1000, 1999), Count: 300, Size: 4096,
			HeaderLen: 512, Server: 0,
			Agg: &model.ChunkAgg{Field: 8, AggPartial: model.AggPartial{Count: 300, Values: 290, Sum: 12345, Min: 1, Max: 99}}},
		{ID: 2, Path: "chunk-s1-000002", Region: region(1000, 1999, 1500, 2500), Count: 7, Size: 700,
			HeaderLen: 200, Server: 1},
	}
	s := NewServer(2)
	s.SetSchema([]model.Key{1000})
	s.RegisterChunks(want)
	s.RegisterFlushOwned(1, s.Epoch(1), nil, 4242)
	if data, err = s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if s, err = Restore(data); err != nil {
		t.Fatal(err)
	}
	for _, w := range want {
		if got, ok := s.Chunk(w.ID); !ok || !reflect.DeepEqual(got, w) {
			t.Errorf("chunk %d:\n got %+v (present=%v)\nwant %+v", w.ID, got, ok, w)
		}
	}
	if hits := s.ChunksFor(region(500, 1500, 1600, 1700)); s.ChunkCount() != 2 || len(hits) != 2 {
		t.Errorf("restored catalog: %d chunks, region hits %d", s.ChunkCount(), len(hits))
	}
	if sc := s.Schema(); sc.Servers != 2 || !reflect.DeepEqual(sc.Bounds, []model.Key{1000}) {
		t.Errorf("schema = %+v", sc)
	}
	if s.Offset(1) != 4242 {
		t.Errorf("offset(1) = %d, want 4242", s.Offset(1))
	}
	// New registrations continue after the restored ids.
	if c := s.RegisterChunks([]ChunkInfo{{Path: "next", Region: region(0, 1, 0, 1)}})[0]; c.ID != 3 {
		t.Errorf("next chunk id = %d, want 3", c.ID)
	}
}

// TestRestoreOlderImageRunsNoQuery: an image laid out the way gob
// snapshots were before the query registry and the live regions left them
// — with the running queries, the handoff offsets, a second copy of every
// slot's key interval and every slot's live region — is refused by version.
// An image taken while queries run restores with no running query: a
// restored registry would pin every later flush's in-memory copy and every
// retired chunk file for queries no process runs.
func TestRestoreOlderImageRunsNoQuery(t *testing.T) {
	type liveRegion struct {
		Server  int
		Keys    model.KeyRange
		MinTime model.Timestamp
		Empty   bool
	}
	type queryInfo struct {
		ID    uint64
		Query model.Query
		AsOf  uint64
	}
	old := struct {
		Schema    PartitionSchema
		Actual    []model.KeyRange
		Live      []liveRegion
		Chunks    []ChunkInfo
		Offsets   []int64
		Epochs    []int64
		Handoffs  []int64
		Queries   []queryInfo
		NextChunk uint64
		NextQuery uint64
	}{
		Schema:    EvenSchema(2),
		Actual:    []model.KeyRange{{Lo: 0, Hi: 99}, {Lo: 100, Hi: model.MaxKey}},
		Live:      []liveRegion{{Server: 0, Keys: model.KeyRange{Lo: 0, Hi: 99}, MinTime: 5}, {Server: 1, Keys: model.KeyRange{Lo: 100, Hi: model.MaxKey}, Empty: true}},
		Chunks:    []ChunkInfo{{ID: 4, Path: "c4", Region: region(0, 9, 0, 9), Count: 3}},
		Offsets:   []int64{7, 8},
		Epochs:    []int64{3, 1},
		Handoffs:  []int64{7, 0},
		Queries:   []queryInfo{{ID: 1, Query: model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()}, AsOf: 2}, {ID: 2}},
		NextChunk: 4,
		NextQuery: 2,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&old); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(buf.Bytes()); !errors.Is(err, ErrVersion) {
		t.Fatalf("Restore of an older gob image: %v, want ErrVersion", err)
	}
	src := NewServer(2)
	src.RegisterChunks([]ChunkInfo{{Path: "c1", Region: region(0, 9, 0, 9)}, {Path: "c2", Region: region(0, 9, 0, 9)}, {Path: "c3", Region: region(0, 9, 0, 9)}})
	src.RegisterChunks([]ChunkInfo{{Path: "c4", Region: region(0, 9, 0, 9), Count: 3}})
	src.RegisterFlushOwned(1, src.Epoch(1), nil, 8)
	src.TransferOwnership(0)
	src.TransferOwnership(0)
	src.RegisterQuery(model.Query{Keys: model.FullKeyRange(), Times: model.FullTimeRange()})
	src.RegisterQuery(model.Query{})
	img, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s, err := Restore(img)
	if err != nil {
		t.Fatal(err)
	}
	if s.OldestActiveQuery() != ^uint64(0) || s.MinQueryAsOf() != ^uint64(0) {
		t.Fatalf("restored queries run: oldest %d, horizon %d", s.OldestActiveQuery(), s.MinQueryAsOf())
	}
	if s.Offset(1) != 8 || s.Epoch(0) != 3 {
		t.Fatalf("restored offset %d, epoch %d", s.Offset(1), s.Epoch(0))
	}
	if c, ok := s.Chunk(4); !ok || c.Path != "c4" {
		t.Fatalf("chunk 4 restored as %+v (present=%v)", c, ok)
	}
	if q := s.RegisterQuery(model.Query{}); q.ID != 1 || s.MinQueryAsOf() != 5 {
		t.Fatalf("first query after restore: id %d, horizon %d", q.ID, s.MinQueryAsOf())
	}
}
