package chunk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"

	"waterwheel/internal/core"
	"waterwheel/internal/model"
)

// goldenPayload is the fixtures' payload schema: the aggregate field at
// offset 0 and a tag at offset 8 (the field golden_v2.chunk's writer
// indexed in its secondary section).
func goldenPayload(value, tag uint64) []byte {
	p := make([]byte, 16)
	binary.BigEndian.PutUint64(p, value)
	binary.BigEndian.PutUint64(p[8:], tag)
	return p
}

// goldenTuples is the content of both fixtures, in the order a
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

var goldenOpts = BuildOptions{BucketMillis: 1000}

// goldenFixture is a committed chunk of goldenTuples and the header
// lengths it was written with.
type goldenFixture struct {
	path                string
	indexLen, headerLen int
}

var (
	// goldenOld was written at commit 0913109 with a secondary attribute
	// index over the tag at payload offset 8. That section lies at
	// [goldenBuild.indexLen, goldenOld.indexLen), behind the sketches, and
	// ParseHeader steps over it.
	goldenOld = goldenFixture{"testdata/golden_v2.chunk", 517, 1113}
	// goldenBuild is what Build(goldenSnapshot, goldenOpts) writes: the
	// same chunk without the secondary section.
	goldenBuild = goldenFixture{"testdata/golden_v2_build.chunk", 437, 1033}
)

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

// TestGoldenChunk pins the one on-disk format with two committed chunks of
// goldenTuples. golden_v2_build.chunk is what Build writes: a byte-for-byte
// match proves the builder's output has not moved. golden_v2.chunk was
// written at commit 0913109 (the last one that also had a v1 writer), with
// a secondary section Build no longer writes: reading its committed bytes
// — not a fresh build — proves chunks written by older builds still open,
// scan, prune and fold.
func TestGoldenChunk(t *testing.T) {
	built, meta, err := Build(goldenSnapshot(t), goldenOpts)
	if err != nil {
		t.Fatal(err)
	}
	writer, err := os.ReadFile(goldenBuild.path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(built, writer) {
		t.Fatalf("Build output (%d bytes) differs from %s (%d bytes): the on-disk format changed",
			len(built), goldenBuild.path, len(writer))
	}
	if meta.IndexLen != goldenBuild.indexLen || meta.HeaderLen != goldenBuild.headerLen {
		t.Fatalf("built index/header length %d/%d, want %d/%d",
			meta.IndexLen, meta.HeaderLen, goldenBuild.indexLen, goldenBuild.headerLen)
	}
	var want model.AggPartial
	for i := range goldenTuples {
		want.AddTuple(&goldenTuples[i], 0)
	}
	if meta.Agg == nil || meta.Agg.AggPartial != want {
		t.Fatalf("meta aggregate %+v, want %+v", meta.Agg, want)
	}

	for _, fx := range []goldenFixture{goldenOld, goldenBuild} {
		golden, err := os.ReadFile(fx.path)
		if err != nil {
			t.Fatal(err)
		}
		h, err := ParseHeader(golden)
		if err != nil {
			t.Fatalf("%s: %v", fx.path, err)
		}
		if h.Count != len(goldenTuples) || h.Leaves != 4 || h.Size != int64(len(golden)) ||
			h.MinTime != 9_000 || h.MaxTime != 30_000 || h.IndexLen != fx.indexLen || h.HeaderLen != fx.headerLen {
			t.Fatalf("%s: header = %+v", fx.path, h.Meta)
		}
		if !h.HasAgg || h.AggField != 0 || h.Sketches[0] == nil {
			t.Fatalf("%s: sections: agg=%v@%d sketch0=%v", fx.path, h.HasAgg, h.AggField, h.Sketches[0])
		}
		wantCounts := []int{5, 4, 0, 1}
		for li, d := range h.Dir {
			if d.Count != wantCounts[li] {
				t.Fatalf("%s: leaf %d holds %d tuples, want %d", fx.path, li, d.Count, wantCounts[li])
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
				t.Fatalf("%s: region %+v:\n got %v\nwant %v", fx.path, region, got, want)
			}
		}

		// The sketches prune a window inside leaf 1's [9000,30000] time
		// extent that holds no tuple.
		gap := model.TimeRange{Lo: 20_000, Hi: 21_000}
		if read, pruned := h.SelectLeaves(model.FullKeyRange(), gap, true); len(read) != 0 || pruned != 3 {
			t.Fatalf("%s: gap window: read %v pruned %d", fx.path, read, pruned)
		}

		// Fold: the pre-aggregate buckets of every leaf sum to the
		// hand-listed tuples' aggregate.
		var folded model.AggPartial
		for li := range h.Dir {
			h.FoldLeafAggAll(li, false, &folded)
		}
		if folded != want {
			t.Fatalf("%s: fold %+v, want %+v", fx.path, folded, want)
		}
		// A bucket-aligned window over leaf 0 folds exactly [10000,11999].
		var part model.AggPartial
		w, ok := h.FoldLeafAgg(0, model.TimeRange{Lo: 10_000, Hi: 11_999}, false, &part)
		if !ok || w != (model.TimeRange{Lo: 10_000, Hi: 11_999}) || part.Count != 4 || part.Sum != 7+11+13+2 {
			t.Fatalf("%s: bucket fold window %+v ok=%v partial %+v", fx.path, w, ok, part)
		}
	}
}

// TestOlderSecondarySectionIsBoundsChecked: the secondary section of
// golden_v2.chunk is stepped over, not trusted. A header cut anywhere
// inside it, or a filter length that runs past the header, is ErrCorrupt.
func TestOlderSecondarySectionIsBoundsChecked(t *testing.T) {
	old, err := os.ReadFile(goldenOld.path)
	if err != nil {
		t.Fatal(err)
	}
	start, end := goldenBuild.indexLen, goldenOld.indexLen
	for cut := start; cut < end; cut++ {
		if _, err := ParseHeader(old[:cut:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("header cut at %d, inside the secondary section [%d,%d): %v, want ErrCorrupt", cut, start, end, err)
		}
	}
	// The section is a 4B attribute offset, then one length-prefixed filter
	// per leaf.
	pos := start + 4
	for li := 0; li < 4; li++ {
		for _, overlong := range []uint32{uint32(goldenOld.headerLen), math.MaxUint32} {
			bad := append([]byte(nil), old...)
			binary.BigEndian.PutUint32(bad[pos:], overlong)
			if _, err := ParseHeader(bad); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("leaf %d secondary filter length %d: %v, want ErrCorrupt", li, overlong, err)
			}
		}
		pos += 4 + int(binary.BigEndian.Uint32(old[pos:]))
	}
	if pos != end {
		t.Fatalf("secondary section walk ends at %d, want %d", pos, end)
	}
}
