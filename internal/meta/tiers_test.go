package meta

import (
	"testing"

	"waterwheel/internal/model"
)

const hourMillis int64 = 3_600_000

func hourRegion(hour int64) model.Region {
	return region(0, 100, hour*hourMillis, hour*hourMillis+hourMillis-1)
}

func TestSetTierAndCounts(t *testing.T) {
	s := NewServer(1)
	a := s.RegisterChunks([]ChunkInfo{{Region: hourRegion(0)}})[0]
	b := s.RegisterChunks([]ChunkInfo{{Region: hourRegion(1)}})[0]
	if got := s.TierCounts(); got != [3]int{2, 0, 0} {
		t.Fatalf("counts = %v", got)
	}
	if !s.SetTier(a.ID, TierWarm) || !s.SetTier(b.ID, TierCold) {
		t.Fatal("SetTier failed on registered chunks")
	}
	if got := s.TierCounts(); got != [3]int{0, 1, 1} {
		t.Fatalf("counts = %v", got)
	}
	if s.SetTier(model.ChunkID(999), TierCold) {
		t.Fatal("SetTier succeeded on unknown chunk")
	}
	if got, _ := s.Chunk(b.ID); got.Tier != TierCold {
		t.Fatalf("tier not persisted: %+v", got)
	}
}

func TestMaxTimeAdvances(t *testing.T) {
	s := NewServer(1)
	if s.MaxTime() != 0 {
		t.Fatal("fresh server has a max time")
	}
	s.RegisterChunks([]ChunkInfo{{Region: region(0, 1, 0, 5000)}})
	s.RegisterChunks([]ChunkInfo{{Region: region(0, 1, 0, 2000)}}) // late, lower
	if s.MaxTime() != 5000 {
		t.Fatalf("MaxTime = %d", s.MaxTime())
	}
}

func TestReplaceChunksAtomic(t *testing.T) {
	s := NewServer(1)
	a := s.RegisterChunks([]ChunkInfo{{Region: hourRegion(0), Path: "a"}})[0]
	b := s.RegisterChunks([]ChunkInfo{{Region: hourRegion(1), Path: "b"}})[0]
	out := ChunkInfo{Region: region(0, 100, 0, 2*hourMillis-1), Path: "merged", Tier: TierCold, Downsampled: true}
	registered, dropped, ok := s.ReplaceChunks([]ChunkInfo{out}, []model.ChunkID{a.ID, b.ID})
	if !ok || len(registered) != 1 || len(dropped) != 2 {
		t.Fatalf("swap: ok=%v reg=%d drop=%d", ok, len(registered), len(dropped))
	}
	if s.ChunkCount() != 1 {
		t.Fatalf("chunk count = %d", s.ChunkCount())
	}
	if _, found := s.Chunk(a.ID); found {
		t.Fatal("input chunk survives the swap")
	}
	got, found := s.Chunk(registered[0].ID)
	if !found || !got.Downsampled || got.Path != "merged" {
		t.Fatalf("output = %+v found=%v", got, found)
	}
	// Missing input: no change at all.
	_, _, ok = s.ReplaceChunks([]ChunkInfo{{Region: hourRegion(5)}}, []model.ChunkID{a.ID})
	if ok {
		t.Fatal("swap with missing input succeeded")
	}
	if s.ChunkCount() != 1 {
		t.Fatalf("failed swap changed state: %d chunks", s.ChunkCount())
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

func TestTiersSurviveSnapshotRestore(t *testing.T) {
	s := NewServer(1)
	a := s.RegisterChunks([]ChunkInfo{{Region: hourRegion(9), Path: "a"}})[0]
	s.SetTier(a.ID, TierCold)
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Restore(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.TierCounts(); got != [3]int{0, 0, 1} {
		t.Fatalf("restored counts = %v", got)
	}
	if s2.MaxTime() != model.Timestamp(10*hourMillis-1) {
		t.Fatalf("restored MaxTime = %d", s2.MaxTime())
	}
}
