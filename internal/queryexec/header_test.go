package queryexec

import (
	"testing"
	"time"

	"waterwheel/internal/chunk"
	"waterwheel/internal/dfs"
	"waterwheel/internal/ingest"
	"waterwheel/internal/meta"
	"waterwheel/internal/model"
	"waterwheel/internal/telemetry"
)

// splitFixture flushes aggTuples(1024) — key k at time 1000+k with the
// aggregated value 3k+1 — into one chunk of 16 leaves over keys [0,1023],
// and returns the DFS, the metadata, the chunk's registration and its
// whole parsed header.
func splitFixture(t *testing.T) (*dfs.FS, *meta.Server, meta.ChunkInfo, *chunk.Header) {
	t.Helper()
	fs := dfs.New(dfs.Config{Nodes: 1, Replication: 1, Seed: 1, Sleep: func(time.Duration) {}})
	ms := meta.NewServer(1)
	srv := ingest.NewServer(ingest.Config{
		ID: 0, Keys: model.KeyRange{Lo: 0, Hi: 1023}, ChunkBytes: 1 << 30, Leaves: 16,
	}, fs, ms, 0)
	for _, tp := range aggTuples(1024, 1000) {
		srv.Insert(tp)
	}
	srv.FlushAll()
	ci, ok := ms.Chunk(1)
	if !ok {
		t.Fatal("chunk 1 not registered")
	}
	data, err := fs.Read(ci.Path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := chunk.ParseHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	if !h.HasAgg || ci.IndexLen != h.IndexLen || ci.IndexLen <= 0 || ci.IndexLen >= ci.HeaderLen {
		t.Fatalf("registered index/header length %d/%d, parsed %d/%d, agg block %v",
			ci.IndexLen, ci.HeaderLen, h.IndexLen, h.HeaderLen, h.HasAgg)
	}
	return fs, ms, ci, h
}

// coldServer is a query server with an empty cache and its own metrics.
func coldServer(fs *dfs.FS, ms *meta.Server, cacheBytes int64) (*Server, *ServerMetrics) {
	m := NewServerMetrics(telemetry.NewRegistry())
	return NewServer(ServerConfig{CacheBytes: cacheBytes, Metrics: m}, fs, ms), m
}

// plannedSub is the subquery the coordinator plans for ci; indexLen stands
// in for ci.IndexLen so a test can plan as metadata without it would.
func plannedSub(ci meta.ChunkInfo, indexLen int, r model.Region, agg *model.AggSpec) *model.SubQuery {
	return &model.SubQuery{
		QueryID: 1, Region: r, Chunk: ci.ID, Agg: agg,
		ChunkPath: ci.Path, ChunkHeaderLen: ci.HeaderLen, ChunkIndexLen: indexLen,
	}
}

// extentBytes is what reading the selected leaves of r costs: one coalesced
// extent from the first to the end of the last (the fixture's chunk is far
// smaller than the coalescing gap).
func extentBytes(h *chunk.Header, r model.Region) (int64, int) {
	read, _ := h.SelectLeaves(r.Keys, r.Times, true)
	if len(read) == 0 {
		return 0, 0
	}
	first, last := h.Dir[read[0]], h.Dir[read[len(read)-1]]
	return last.Offset + last.Length - first.Offset, len(read)
}

// TestColdRangeSubQueryReadsOnlyTheIndexPrefix: a range subquery on a cold
// server reads the header's index prefix and its leaves, and nothing of the
// pre-aggregate block — neither from the DFS nor into the cache.
func TestColdRangeSubQueryReadsOnlyTheIndexPrefix(t *testing.T) {
	fs, ms, ci, h := splitFixture(t)
	s, m := coldServer(fs, ms, 1<<20)
	r := model.Region{Keys: model.KeyRange{Lo: 100, Hi: 300}, Times: model.FullTimeRange()}
	span, leaves := extentBytes(h, r)
	reads, bytes := fs.Metrics().Reads.Load(), fs.Metrics().BytesRead.Load()
	res, err := s.ExecuteSubQuery(plannedSub(ci, ci.IndexLen, r, nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 201 {
		t.Fatalf("%d tuples, want 201", res.Len())
	}
	if want := int64(ci.IndexLen) + span; res.BytesRead != want {
		t.Errorf("BytesRead = %d, want the index prefix %d + extents %d", res.BytesRead, ci.IndexLen, span)
	}
	if got := fs.Metrics().BytesRead.Load() - bytes; got != res.BytesRead {
		t.Errorf("the DFS served %d bytes, the result reports %d", got, res.BytesRead)
	}
	if got := fs.Metrics().Reads.Load() - reads; got != 2 {
		t.Errorf("%d DFS reads, want the index prefix and one extent", got)
	}
	if m.AggHits.Value()+m.AggMisses.Value() != 0 {
		t.Errorf("a range subquery looked up the agg unit: %d hits, %d misses", m.AggHits.Value(), m.AggMisses.Value())
	}
	if got, want := s.CacheMetrics().Entries, 1+leaves; got != want {
		t.Errorf("cache holds %d units, want the header unit and %d leaves", got, leaves)
	}
}

// TestColdAggregateSubQueryReadsTheHeaderOnce: an aggregate subquery that
// misses both header units reads the whole header in one DFS access —
// exactly the accesses and bytes of a server that knows no index prefix —
// answers what that server answers, and leaves both units cached.
func TestColdAggregateSubQueryReadsTheHeaderOnce(t *testing.T) {
	fs, ms, ci, _ := splitFixture(t)
	cut := model.TimeRange{Lo: 1100, Hi: 1899}
	for _, tc := range []struct {
		name   string
		region model.Region
		spec   model.AggSpec
	}{
		{"sum-all", model.FullRegion(), model.AggSpec{}},
		{"count-time-cut", model.Region{Keys: model.FullKeyRange(), Times: cut}, model.AggSpec{CountOnly: true}},
		{"sum-time-cut", model.Region{Keys: model.FullKeyRange(), Times: cut}, model.AggSpec{}},
		{"sum-key-cut", model.Region{Keys: model.KeyRange{Lo: 70, Hi: 900}, Times: cut}, model.AggSpec{}},
	} {
		var got [2]*model.SubResult
		var reads, bytes [2]int64
		var srv [2]*Server
		for i, indexLen := range []int{ci.IndexLen, 0} {
			s, m := coldServer(fs, ms, 1<<20)
			srv[i] = s
			r0, b0 := fs.Metrics().Reads.Load(), fs.Metrics().BytesRead.Load()
			spec := tc.spec
			res, err := s.ExecuteSubQuery(plannedSub(ci, indexLen, tc.region, &spec))
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			got[i], reads[i], bytes[i] = res, fs.Metrics().Reads.Load()-r0, fs.Metrics().BytesRead.Load()-b0
			if m.HeaderMisses.Value() != 1 || m.AggHits.Value() != 0 {
				t.Errorf("%s (index length %d): header misses %d, agg hits %d", tc.name, indexLen, m.HeaderMisses.Value(), m.AggHits.Value())
			}
		}
		if *got[0].Agg != *got[1].Agg || got[0].Agg.Count == 0 {
			t.Errorf("%s: split header answers %+v, whole header %+v", tc.name, *got[0].Agg, *got[1].Agg)
		}
		if reads[0] != reads[1] || bytes[0] != bytes[1] || got[0].BytesRead != bytes[0] {
			t.Errorf("%s: split header cost %d reads / %d bytes (result %d), whole header %d / %d",
				tc.name, reads[0], bytes[0], got[0].BytesRead, reads[1], bytes[1])
		}
		if tc.name == "sum-all" {
			var want uint64
			for i := 0; i < 1024; i++ {
				want += uint64(3*i + 1)
			}
			if reads[0] != 1 || bytes[0] != int64(ci.HeaderLen) || got[0].Agg.Count != 1024 || got[0].Agg.Sum != want {
				t.Errorf("sum-all: %d reads of %d bytes, count %d, sum %d; want one read of the %d-byte header, 1024 and %d",
					reads[0], bytes[0], got[0].Agg.Count, got[0].Agg.Sum, ci.HeaderLen, want)
			}
		}
		// Both units went into the split server's cache: the header unit and
		// the agg unit, beside whatever leaves were read.
		if n := srv[0].EvictChunk(ci.ID) - srv[1].EvictChunk(ci.ID); n != 1 {
			t.Errorf("%s: the split server cached %d more units than the whole-header one, want 1 (the agg unit)", tc.name, n)
		}
	}
}

// TestAggregateLoadsTheAggUnitOnlyWhenBucketsAnswer: behind a cached index
// prefix, an aggregate reads the pre-aggregate block by itself — once, and
// only when some leaf folds from buckets. A COUNT over whole leaves is
// answered from the directory and never reads it.
func TestAggregateLoadsTheAggUnitOnlyWhenBucketsAnswer(t *testing.T) {
	fs, ms, ci, _ := splitFixture(t)
	s, m := coldServer(fs, ms, 1<<20)
	if _, err := s.ExecuteSubQuery(plannedSub(ci, ci.IndexLen, model.Region{Keys: model.KeyRange{Lo: 0, Hi: 0}, Times: model.FullTimeRange()}, nil)); err != nil {
		t.Fatal(err)
	}
	run := func(spec model.AggSpec) (*model.SubResult, int64) {
		t.Helper()
		r0 := fs.Metrics().Reads.Load()
		res, err := s.ExecuteSubQuery(plannedSub(ci, ci.IndexLen, model.FullRegion(), &spec))
		if err != nil {
			t.Fatal(err)
		}
		return res, fs.Metrics().Reads.Load() - r0
	}
	res, reads := run(model.AggSpec{CountOnly: true})
	if res.Agg.Count != 1024 || reads != 0 || m.AggMisses.Value() != 0 {
		t.Errorf("COUNT over whole leaves: count %d, %d reads, %d agg misses; want 1024, 0, 0", res.Agg.Count, reads, m.AggMisses.Value())
	}
	res, reads = run(model.AggSpec{})
	if want := int64(ci.HeaderLen - ci.IndexLen); reads != 1 || res.BytesRead != want || res.CacheHits != 1 {
		t.Errorf("SUM behind a cached index prefix: %d reads, %d bytes, %d hits; want 1 read of the %d-byte block and the header hit",
			reads, res.BytesRead, res.CacheHits, want)
	}
	res, reads = run(model.AggSpec{})
	if reads != 0 || res.BytesRead != 0 || res.CacheHits != 2 || m.AggHits.Value() != 1 {
		t.Errorf("SUM again: %d reads, %d bytes, %d hits, %d agg hits; want both units from the cache", reads, res.BytesRead, res.CacheHits, m.AggHits.Value())
	}
	if res.Agg.Count != 1024 || res.AggPushdown != 16 {
		t.Errorf("SUM: count %d from %d pushed-down leaves, want 1024 from 16", res.Agg.Count, res.AggPushdown)
	}
}

// TestSubQueryWithoutIndexLen: a subquery planned from metadata that has no
// index length (registered before it existed, or built by hand) reads and
// caches the whole header as its header unit, and an aggregate behind it
// needs no further read.
func TestSubQueryWithoutIndexLen(t *testing.T) {
	fs, ms, ci, h := splitFixture(t)
	s, m := coldServer(fs, ms, 1<<20)
	r := model.Region{Keys: model.KeyRange{Lo: 500, Hi: 520}, Times: model.FullTimeRange()}
	span, _ := extentBytes(h, r)
	res, err := s.ExecuteSubQuery(plannedSub(ci, 0, r, nil))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(ci.HeaderLen) + span; res.Len() != 21 || res.BytesRead != want {
		t.Errorf("%d tuples, %d bytes; want 21 and the whole header %d + extents %d", res.Len(), res.BytesRead, ci.HeaderLen, span)
	}
	r0 := fs.Metrics().Reads.Load()
	res, err = s.ExecuteSubQuery(plannedSub(ci, 0, model.FullRegion(), &model.AggSpec{}))
	if err != nil {
		t.Fatal(err)
	}
	if reads := fs.Metrics().Reads.Load() - r0; reads != 0 || res.Agg.Count != 1024 || m.AggHits.Value()+m.AggMisses.Value() != 0 {
		t.Errorf("SUM behind a whole cached header: %d reads, count %d, agg unit looked up %d times",
			reads, res.Agg.Count, m.AggHits.Value()+m.AggMisses.Value())
	}
}

// TestAggUnitEvictionsAreCountedAsAgg: the eviction hook books each unit
// under its own label — the agg unit is neither a header nor a leaf.
func TestAggUnitEvictionsAreCountedAsAgg(t *testing.T) {
	fs, ms, ci, _ := splitFixture(t)
	// Room for the two header units and nothing else: the range subquery's
	// leaves push the agg unit (least recently used once the range subquery
	// touches the header unit) out first.
	s, m := coldServer(fs, ms, int64(ci.HeaderLen))
	if _, err := s.ExecuteSubQuery(plannedSub(ci, ci.IndexLen, model.FullRegion(), &model.AggSpec{})); err != nil {
		t.Fatal(err)
	}
	r := model.Region{Keys: model.KeyRange{Lo: 0, Hi: 10}, Times: model.FullTimeRange()}
	if _, err := s.ExecuteSubQuery(plannedSub(ci, ci.IndexLen, r, nil)); err != nil {
		t.Fatal(err)
	}
	if m.AggEvictions.Value() != 1 {
		t.Errorf("agg unit evictions = %d, want 1", m.AggEvictions.Value())
	}
	if got, want := m.HeaderEvictions.Value()+m.AggEvictions.Value()+m.LeafEvictions.Value(), s.CacheMetrics().Evictions; got != want {
		t.Errorf("evictions by unit sum to %d, the cache made %d", got, want)
	}
}
