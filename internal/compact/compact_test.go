package compact

import (
	"encoding/binary"
	"testing"

	"waterwheel/internal/chunk"
	"waterwheel/internal/core"
	"waterwheel/internal/dfs"
	"waterwheel/internal/meta"
	"waterwheel/internal/model"
)

// buildChunk flushes n tuples in [t0, t0+span) through a template tree
// into a chunk with pre-aggregates, writes it to fs, and registers it.
func buildChunk(t *testing.T, fs *dfs.FS, ms *meta.Server, path string, t0, span int64, n int) meta.ChunkInfo {
	t.Helper()
	tree := core.NewTemplateTree(core.TemplateConfig{Keys: model.KeyRange{Lo: 0, Hi: 1 << 16}, Leaves: 8})
	tuples := make([]model.Tuple, 0, n)
	for i := 0; i < n; i++ {
		payload := make([]byte, 8)
		payload[7] = byte(i)
		tuples = append(tuples, model.Tuple{
			Key:     model.Key(i * 37 % (1 << 16)),
			Time:    model.Timestamp(t0 + int64(i)*span/int64(n)),
			Payload: payload,
		})
	}
	tree.InsertBatch(tuples)
	data, cm, err := chunk.Build(tree.FlushReset(), chunk.BuildOptions{BucketMillis: span / 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Write(path, data); err != nil {
		t.Fatal(err)
	}
	return ms.RegisterChunks([]meta.ChunkInfo{{
		Path:      path,
		Region:    model.Region{Keys: cm.Keys, Times: model.TimeRange{Lo: cm.MinTime, Hi: cm.MaxTime}},
		Count:     cm.Count,
		Size:      cm.Size,
		HeaderLen: cm.HeaderLen,
		Agg:       cm.Agg,
	}})[0]
}

func TestTickDemotesByAge(t *testing.T) {
	fs := dfs.New(dfs.Config{Nodes: 1, Replication: 1})
	ms := meta.NewServer(1)
	old := buildChunk(t, fs, ms, "chunks/old", 0, 1000, 64)
	buildChunk(t, fs, ms, "chunks/new", 100_000, 1000, 64)
	cp := New(Config{WarmAfterMillis: 50_000, ColdAfterMillis: 200_000}, fs, ms, nil, nil)
	demoted, merged := cp.Tick()
	if demoted != 1 || merged != 0 {
		t.Fatalf("demoted=%d merged=%d, want 1/0", demoted, merged)
	}
	if got, _ := ms.Chunk(old.ID); got.Tier != meta.TierWarm {
		t.Fatalf("old chunk tier = %d, want warm", got.Tier)
	}
	if counts := ms.TierCounts(); counts != [3]int{1, 1, 0} {
		t.Fatalf("tier counts = %v", counts)
	}
}

func TestTickMergesColdChunks(t *testing.T) {
	fs := dfs.New(dfs.Config{Nodes: 1, Replication: 1})
	ms := meta.NewServer(1)
	a := buildChunk(t, fs, ms, "chunks/a", 0, 1000, 64)
	b := buildChunk(t, fs, ms, "chunks/b", 1000, 1000, 64)
	// A fresh chunk far in the future ages the first two past cold.
	buildChunk(t, fs, ms, "chunks/now", 10_000_000, 1000, 8)
	var retired []meta.ChunkInfo
	cp := New(Config{WarmAfterMillis: 1000, ColdAfterMillis: 2000},
		fs, ms, nil, func(infos []meta.ChunkInfo) { retired = append(retired, infos...) })
	_, merged := cp.Tick()
	if merged != 1 {
		t.Fatalf("merged = %d, want 1", merged)
	}
	if len(retired) != 2 {
		t.Fatalf("retired %d inputs, want 2", len(retired))
	}
	for _, ci := range retired {
		if ci.ID != a.ID && ci.ID != b.ID {
			t.Fatalf("unexpected retired chunk %d", ci.ID)
		}
	}
	// The merged chunk is registered, downsampled, cold, and covers the
	// union of its inputs.
	var out meta.ChunkInfo
	found := 0
	for _, ci := range ms.ChunksFor(model.FullRegion()) {
		if ci.Downsampled {
			out = ci
			found++
		}
	}
	if found != 1 {
		t.Fatalf("downsampled chunks registered = %d, want 1", found)
	}
	if out.Tier != meta.TierCold {
		t.Fatalf("output tier = %d, want cold", out.Tier)
	}
	if out.Region.Times.Lo > a.Region.Times.Lo || out.Region.Times.Hi < b.Region.Times.Hi {
		t.Fatalf("output region %v does not cover inputs %v+%v", out.Region, a.Region, b.Region)
	}
	// Its rows parse as downsampled payloads and fold to the input count.
	data, err := fs.Read(out.Path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := chunk.ParseHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	if h.HasAgg {
		t.Fatal("downsampled chunk must not carry a pre-aggregate block")
	}
	var total uint32
	for li := 0; li < h.Leaves; li++ {
		lf := h.Dir[li]
		if lf.Count == 0 {
			continue
		}
		body := data[lf.Offset : lf.Offset+lf.Length]
		var cols chunk.LeafColumns
		if err := h.DecodeColumns(li, body, &cols); err != nil {
			t.Fatal(err)
		}
		for j := range cols.Keys {
			row := cols.Payload[cols.Starts[j]:cols.Starts[j+1]]
			if len(row) != chunk.DownsampledPayloadLen {
				t.Fatalf("row payload not downsampled: %d bytes", len(row))
			}
			total += binary.BigEndian.Uint32(row) // the bucket's count leads the layout
		}
	}
	if want := uint32(a.Count + b.Count); total != want {
		t.Fatalf("downsampled counts fold to %d, want %d", total, want)
	}
	// A second tick finds nothing mergeable (single downsampled chunk).
	if _, merged := cp.Tick(); merged != 0 {
		t.Fatalf("re-tick merged %d", merged)
	}
}

func TestTickDisabledIsNoop(t *testing.T) {
	fs := dfs.New(dfs.Config{Nodes: 1, Replication: 1})
	ms := meta.NewServer(1)
	buildChunk(t, fs, ms, "chunks/a", 0, 1000, 16)
	cp := New(Config{}, fs, ms, nil, nil)
	if d, m := cp.Tick(); d != 0 || m != 0 {
		t.Fatalf("disabled compactor did work: %d/%d", d, m)
	}
}
