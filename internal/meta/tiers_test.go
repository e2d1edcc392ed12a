package meta

import (
	"testing"

	"waterwheel/internal/model"
)

func hourRegion(hour int64) model.Region {
	return region(0, 100, hour*HourMillis, hour*HourMillis+HourMillis-1)
}

func TestTierIndexAddRemove(t *testing.T) {
	ti := newTierIndex()
	tr := model.TimeRange{Lo: model.Timestamp(5 * HourMillis), Hi: model.Timestamp(7*HourMillis - 1)}
	ti.add(tr)
	if ti.hours[5] != 1 || ti.hours[6] != 1 {
		t.Fatalf("hours = %v", ti.hours)
	}
	if ti.days[0] != 1 || ti.weeks[0] != 1 {
		t.Fatalf("days=%v weeks=%v", ti.days, ti.weeks)
	}
	ti.remove(tr)
	if len(ti.hours) != 0 || len(ti.days) != 0 || len(ti.weeks) != 0 {
		t.Fatalf("buckets survive removal: h=%v d=%v w=%v", ti.hours, ti.days, ti.weeks)
	}
}

func TestTierIndexWideChunk(t *testing.T) {
	ti := newTierIndex()
	wide := model.TimeRange{Lo: 0, Hi: model.Timestamp((maxTrackedHours + 10) * HourMillis)}
	ti.add(wide)
	if ti.wide != 1 || len(ti.hours) != 0 {
		t.Fatalf("wide=%d hours=%v", ti.wide, ti.hours)
	}
	ti.remove(wide)
	if ti.wide != 0 {
		t.Fatalf("wide=%d after remove", ti.wide)
	}
}

func TestTierIndexMatchHoursSkipsEmptyDays(t *testing.T) {
	ti := newTierIndex()
	// Data only in hour 9 of day 0 and hour 9 of day 6.
	ti.add(model.TimeRange{Lo: model.Timestamp(9 * HourMillis), Hi: model.Timestamp(10*HourMillis - 1)})
	day6 := 6 * DayMillis
	ti.add(model.TimeRange{Lo: model.Timestamp(day6 + 9*HourMillis), Hi: model.Timestamp(day6 + 10*HourMillis - 1)})
	// One window spanning the whole seven days.
	got := make(map[int64]struct{})
	ti.matchHours([]model.TimeRange{{Lo: 0, Hi: model.Timestamp(7*DayMillis - 1)}}, got)
	if len(got) != 2 {
		t.Fatalf("matched %v, want the two populated hours", got)
	}
	if _, ok := got[9]; !ok {
		t.Fatal("day-0 hour missing")
	}
	if _, ok := got[6*24+9]; !ok {
		t.Fatal("day-6 hour missing")
	}
}

func TestChunksForWindowsPrunes(t *testing.T) {
	s := NewServer(1)
	// One chunk per hour across three days.
	for h := int64(0); h < 72; h++ {
		s.RegisterChunks([]ChunkInfo{{Region: hourRegion(h), Server: 0}})
	}
	full := model.Region{Keys: model.FullKeyRange(), Times: model.TimeRange{Lo: 0, Hi: model.Timestamp(72*HourMillis - 1)}}
	// Daily window 09:00–17:00: hours 9..16 of each day qualify.
	rc := &model.Recurrence{PeriodMillis: DayMillis, StartMillis: 9 * HourMillis, LengthMillis: 8 * HourMillis}
	windows := rc.Windows(full.Times)
	if len(windows) != 3 {
		t.Fatalf("windows = %d, want 3", len(windows))
	}
	chunks, pruned, _ := s.ChunksForWindowsWithWatermark(full, windows)
	if len(chunks) != 24 {
		t.Fatalf("kept %d chunks, want 24 (8 hours × 3 days)", len(chunks))
	}
	if pruned != 48 {
		t.Fatalf("pruned %d, want 48", pruned)
	}
	// Everything kept must intersect some window.
	for _, ci := range chunks {
		hit := false
		for _, w := range windows {
			if ci.Region.Times.Lo <= w.Hi && w.Lo <= ci.Region.Times.Hi {
				hit = true
				break
			}
		}
		if !hit {
			t.Fatalf("kept chunk %v intersects no window", ci.Region.Times)
		}
	}
}

func TestChunksForWindowsKeepsWideChunks(t *testing.T) {
	s := NewServer(1)
	wide := region(0, 100, 0, (maxTrackedHours+10)*HourMillis)
	s.RegisterChunks([]ChunkInfo{{Region: wide, Server: 0}})
	full := model.Region{Keys: model.FullKeyRange(), Times: model.FullTimeRange()}
	windows := []model.TimeRange{{Lo: 9 * model.Timestamp(HourMillis), Hi: 10*model.Timestamp(HourMillis) - 1}}
	chunks, pruned, _ := s.ChunksForWindowsWithWatermark(full, windows)
	if len(chunks) != 1 || pruned != 0 {
		t.Fatalf("wide chunk pruned: kept=%d pruned=%d", len(chunks), pruned)
	}
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
	out := ChunkInfo{Region: region(0, 100, 0, 2*HourMillis-1), Path: "merged", Tier: TierCold, Downsampled: true}
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
	if s2.MaxTime() != model.Timestamp(10*HourMillis-1) {
		t.Fatalf("restored MaxTime = %d", s2.MaxTime())
	}
	// The rebuilt hierarchy prunes like the original.
	full := model.Region{Keys: model.FullKeyRange(), Times: model.FullTimeRange()}
	chunks, _, _ := s2.ChunksForWindowsWithWatermark(full,
		[]model.TimeRange{{Lo: model.Timestamp(9 * HourMillis), Hi: model.Timestamp(10*HourMillis - 1)}})
	if len(chunks) != 1 {
		t.Fatalf("restored hierarchy lost the chunk: %d", len(chunks))
	}
}
