package meta

import (
	"os"
	"reflect"
	"testing"

	"waterwheel/internal/model"
)

// TestRestoreSnapshotWithFormatField loads a meta.snap written by commit
// 0913109, whose ChunkInfo still carried a Format field (2 on both chunks
// here). Dropping the field must not cost a reopened data directory its
// catalog: gob skips the unknown field and every remaining one survives.
// IndexLen, which the snapshot predates, decodes as 0 — the value a query
// server takes to read the whole header.
func TestRestoreSnapshotWithFormatField(t *testing.T) {
	data, err := os.ReadFile("testdata/pr13_format_field.snap")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Restore(data)
	if err != nil {
		t.Fatal(err)
	}
	want := []ChunkInfo{
		{ID: 1, Path: "chunk-s0-000001", Region: region(0, 999, 1000, 1999), Count: 300, Size: 4096,
			HeaderLen: 512, Server: 0, Tier: TierCold,
			Agg: &model.ChunkAgg{Field: 8, AggPartial: model.AggPartial{Count: 300, Values: 290, Sum: 12345, Min: 1, Max: 99}}},
		{ID: 2, Path: "chunk-s1-000002", Region: region(1000, 1999, 1500, 2500), Count: 7, Size: 700,
			HeaderLen: 200, Server: 1, Downsampled: true},
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
