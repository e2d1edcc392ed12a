package chunk

import (
	"bytes"
	"encoding/binary"
	"os"
	"reflect"
	"testing"

	"waterwheel/internal/core"
	"waterwheel/internal/model"
)

// goldenPayload is the fixture's payload schema: the aggregate field at
// offset 0 and the secondary-indexed tag at offset 8.
func goldenPayload(value, tag uint64) []byte {
	p := make([]byte, 16)
	binary.BigEndian.PutUint64(p, value)
	binary.BigEndian.PutUint64(p[8:], tag)
	return p
}

// goldenTuples is the content of testdata/golden_v2.chunk, in the order a
// full scan returns it (key order, equal keys in arrival order). Keys
// [0,400) split into four leaves of width 100: leaf 0 has fixed-schema
// payloads and a steady cadence (constant-length and delta-of-delta
// columns), leaf 1 mixes payload lengths including ones too short for the
// aggregate field, leaf 2 is empty, and leaf 3 holds a single tuple.
var goldenTuples = []model.Tuple{
	{Key: 3, Time: 10_000, Payload: goldenPayload(7, 1)},
	{Key: 17, Time: 10_500, Payload: goldenPayload(11, 2)},
	{Key: 17, Time: 11_000, Payload: goldenPayload(13, 1)},
	{Key: 42, Time: 11_500, Payload: goldenPayload(2, 3)},
	{Key: 99, Time: 12_000, Payload: goldenPayload(40, 1)},
	{Key: 100, Time: 9_000, Payload: goldenPayload(5, 2)},
	{Key: 128, Time: 14_250, Payload: []byte("short")},
	{Key: 150, Time: 13_999, Payload: nil},
	{Key: 199, Time: 30_000, Payload: append(goldenPayload(1<<40, 9), "tail"...)},
	{Key: 399, Time: 12_345, Payload: goldenPayload(100, 2)},
}

var goldenOpts = BuildOptions{BucketMillis: 1000, Secondary: &SecondarySpec{Offset: 8}}

func goldenSnapshot(t testing.TB) *core.FlushSnapshot {
	t.Helper()
	tree := core.NewTemplateTree(core.TemplateConfig{Keys: model.KeyRange{Lo: 0, Hi: 400}, Leaves: 4})
	for _, tp := range goldenTuples {
		tree.Insert(tp)
	}
	return tree.FlushReset()
}

// goldenFilter is the brute-force oracle: goldenTuples matching a region.
func goldenFilter(kr model.KeyRange, tr model.TimeRange) []model.Tuple {
	var out []model.Tuple
	for _, tp := range goldenTuples {
		if kr.Contains(tp.Key) && tr.Contains(tp.Time) {
			out = append(out, tp)
		}
	}
	return out
}

// TestGoldenChunk pins the one on-disk format. The fixture was written by
// Build(goldenSnapshot, goldenOpts) at commit 0913109 (the last one that
// also had a v1 writer); a byte-for-byte match proves the builder's output
// has not moved since, and reading the committed bytes — not a fresh
// build — proves chunks written by older builds still open.
func TestGoldenChunk(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden_v2.chunk")
	if err != nil {
		t.Fatal(err)
	}
	built, meta, err := Build(goldenSnapshot(t), goldenOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(built, golden) {
		t.Fatalf("Build output (%d bytes) differs from the golden fixture (%d bytes): the on-disk format changed",
			len(built), len(golden))
	}

	h, err := ParseHeader(golden)
	if err != nil {
		t.Fatal(err)
	}
	if h.Count != len(goldenTuples) || h.Leaves != 4 || h.Size != int64(len(golden)) ||
		h.MinTime != 9_000 || h.MaxTime != 30_000 || h.HeaderLen != meta.HeaderLen {
		t.Fatalf("header = %+v", h.Meta)
	}
	if !h.HasSecondary || h.SecondaryOffset != 8 || !h.HasAgg || h.AggField != 0 || h.Sketches[0] == nil {
		t.Fatalf("sections: secondary=%v@%d agg=%v@%d sketch0=%v",
			h.HasSecondary, h.SecondaryOffset, h.HasAgg, h.AggField, h.Sketches[0])
	}
	wantCounts := []int{5, 4, 0, 1}
	for li, d := range h.Dir {
		if d.Count != wantCounts[li] {
			t.Fatalf("leaf %d holds %d tuples, want %d", li, d.Count, wantCounts[li])
		}
	}

	// Select + scan over a few regions against the hand-listed tuples.
	for _, region := range []model.Region{
		{Keys: model.FullKeyRange(), Times: model.FullTimeRange()},
		{Keys: model.KeyRange{Lo: 17, Hi: 150}, Times: model.TimeRange{Lo: 10_500, Hi: 14_000}},
		{Keys: model.KeyRange{Lo: 200, Hi: 398}, Times: model.FullTimeRange()},
		{Keys: model.KeyRange{Lo: 100, Hi: 399}, Times: model.TimeRange{Lo: 12_345, Hi: 12_345}},
	} {
		got := collect(t, h, golden, region.Keys, region.Times)
		if want := goldenFilter(region.Keys, region.Times); !reflect.DeepEqual(got, want) {
			t.Fatalf("region %+v:\n got %v\nwant %v", region, got, want)
		}
	}

	// The sketches prune a window inside leaf 1's [9000,30000] time extent
	// that holds no tuple; the secondary filters prune every leaf for an
	// absent tag and keep the three leaves (0, 1, 3) that hold tag 2.
	gap := model.TimeRange{Lo: 20_000, Hi: 21_000}
	if read, pruned := h.SelectLeaves(model.FullKeyRange(), gap, true); len(read) != 0 || pruned != 3 {
		t.Fatalf("gap window: read %v pruned %d", read, pruned)
	}
	absent, present := uint64(12345), uint64(2)
	if read, _ := h.SelectLeavesFor(model.FullKeyRange(), model.FullTimeRange(), true, &absent); len(read) != 0 {
		t.Fatalf("absent tag selected leaves %v", read)
	}
	if read, _ := h.SelectLeavesFor(model.FullKeyRange(), model.FullTimeRange(), true, &present); !reflect.DeepEqual(read, []int{0, 1, 3}) {
		t.Fatalf("tag 2 selected leaves %v", read)
	}

	// Fold: the pre-aggregate buckets of every leaf sum to the hand-listed
	// tuples' aggregate, as does the chunk-level summary in Meta.
	var want, folded model.AggPartial
	for i := range goldenTuples {
		want.AddTuple(&goldenTuples[i], 0)
	}
	for li := range h.Dir {
		h.FoldLeafAggAll(li, false, &folded)
	}
	if folded != want || meta.Agg == nil || meta.Agg.AggPartial != want {
		t.Fatalf("fold %+v, meta %+v, want %+v", folded, meta.Agg, want)
	}
	// A bucket-aligned window over leaf 0 folds exactly [10000,11999].
	var part model.AggPartial
	w, ok := h.FoldLeafAgg(0, model.TimeRange{Lo: 10_000, Hi: 11_999}, false, &part)
	if !ok || w != (model.TimeRange{Lo: 10_000, Hi: 11_999}) || part.Count != 4 || part.Sum != 7+11+13+2 {
		t.Fatalf("bucket fold window %+v ok=%v partial %+v", w, ok, part)
	}
}
