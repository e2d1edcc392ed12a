package chunk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"reflect"
	"testing"

	"waterwheel/internal/core"
	"waterwheel/internal/model"
)

// goldenPayload is the fixtures' payload schema: the aggregate field at
// offset 0 and a tag at offset 8.
func goldenPayload(value, tag uint64) []byte {
	p := make([]byte, 16)
	binary.BigEndian.PutUint64(p, value)
	binary.BigEndian.PutUint64(p[8:], tag)
	return p
}

// goldenTuples is the content of the fixtures, in the order a
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

var goldenOpts = BuildOptions{}

// goldenFixture is a committed chunk of goldenTuples and the header
// lengths it was written with.
type goldenFixture struct {
	path                string
	indexLen, headerLen int
}

var (
	// golden is what Build(goldenSnapshot, goldenOpts) writes.
	golden = goldenFixture{"testdata/golden_v3.chunk", 465, 1061}
	// goldenV2 is the same chunk as the unsummed WWCHUNK2 format wrote it,
	// which this build refuses.
	goldenV2 = goldenFixture{"testdata/v2.chunk", 437, 1033}
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

// TestGoldenChunk pins the one on-disk format with a committed chunk of
// goldenTuples, golden_v3.chunk: a byte-for-byte match with Build proves
// Build's output has not moved, restamp proves every sum is where
// the layout says and covers what it says, and reading the committed
// bytes — not a fresh build — proves they open, scan, prune and fold to
// the hand-listed tuples.
func TestGoldenChunk(t *testing.T) {
	built, meta, err := Build(goldenSnapshot(t), goldenOpts)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(golden.path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(built, data) {
		t.Fatalf("Build output (%d bytes) differs from %s (%d bytes): the on-disk format changed",
			len(built), golden.path, len(data))
	}
	if !bytes.Equal(restamp(data), data) {
		t.Fatal("the sums Build wrote differ from the sums the layout specifies")
	}
	if meta.IndexLen != golden.indexLen || meta.HeaderLen != golden.headerLen {
		t.Fatalf("built index/header length %d/%d, want %d/%d",
			meta.IndexLen, meta.HeaderLen, golden.indexLen, golden.headerLen)
	}
	var want model.AggPartial
	for i := range goldenTuples {
		want.AddTuple(&goldenTuples[i], 0)
	}
	if meta.Agg == nil || meta.Agg.AggPartial != want {
		t.Fatalf("meta aggregate %+v, want %+v", meta.Agg, want)
	}

	h, err := ParseHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	if h.Count != len(goldenTuples) || h.Leaves != 4 || h.Size != int64(len(data)) ||
		h.MinTime != 9_000 || h.MaxTime != 30_000 || h.IndexLen != golden.indexLen || h.HeaderLen != golden.headerLen {
		t.Fatalf("header = %+v", h.Meta)
	}
	if !h.HasAgg || h.AggField != 0 || h.Sketches[0] == nil {
		t.Fatalf("sections: agg=%v@%d sketch0=%v", h.HasAgg, h.AggField, h.Sketches[0])
	}
	wantCounts := []int{5, 4, 0, 1}
	for li, d := range h.Dir {
		if d.Count != wantCounts[li] {
			t.Fatalf("leaf %d holds %d tuples, want %d", li, d.Count, wantCounts[li])
		}
		if err := h.CheckLeaf(li, data[d.Offset:d.Offset+d.Length]); err != nil {
			t.Fatalf("leaf %d: %v", li, err)
		}
	}

	// Select + scan over a few regions against the hand-listed tuples.
	for _, region := range []model.Region{
		{Keys: model.FullKeyRange(), Times: model.FullTimeRange()},
		{Keys: model.KeyRange{Lo: 17, Hi: 150}, Times: model.TimeRange{Lo: 10_500, Hi: 14_000}},
		{Keys: model.KeyRange{Lo: 200, Hi: 398}, Times: model.FullTimeRange()},
		{Keys: model.KeyRange{Lo: 100, Hi: 399}, Times: model.TimeRange{Lo: 12_345, Hi: 12_345}},
	} {
		got := collect(t, h, data, region.Keys, region.Times)
		if want := goldenFilter(region.Keys, region.Times); !reflect.DeepEqual(got, want) {
			t.Fatalf("region %+v:\n got %v\nwant %v", region, got, want)
		}
	}

	// The sketches prune a window inside leaf 1's [9000,30000] time
	// extent that holds no tuple.
	gap := model.TimeRange{Lo: 20_000, Hi: 21_000}
	if read, pruned := h.SelectLeaves(model.FullKeyRange(), gap, true); len(read) != 0 || pruned != 3 {
		t.Fatalf("gap window: read %v pruned %d", read, pruned)
	}

	// Fold: the pre-aggregate buckets of every leaf sum to the hand-listed
	// tuples' aggregate.
	var folded model.AggPartial
	for li := range h.Dir {
		h.FoldLeafAggAll(li, false, &folded)
	}
	if folded != want {
		t.Fatalf("fold %+v, want %+v", folded, want)
	}
	// A bucket-aligned window over leaf 0 folds exactly [10000,11999].
	var part model.AggPartial
	w, ok := h.FoldLeafAgg(0, model.TimeRange{Lo: 10_000, Hi: 11_999}, false, &part)
	if !ok || w != (model.TimeRange{Lo: 10_000, Hi: 11_999}) || part.Count != 4 || part.Sum != 7+11+13+2 {
		t.Fatalf("bucket fold window %+v ok=%v partial %+v", w, ok, part)
	}
}

// TestV2ChunkIsRefused: the same tuples as the WWCHUNK2 format wrote them,
// with no sums, are refused by name — as a whole header, as the index
// prefix a query server reads, and by the magic Open checks — not read
// unchecked.
func TestV2ChunkIsRefused(t *testing.T) {
	data, err := os.ReadFile(goldenV2.path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{len(data), goldenV2.headerLen, goldenV2.indexLen, 8} {
		if _, err := ParseHeader(data[:n:n]); !errors.Is(err, ErrUnsupportedVersion) {
			t.Fatalf("ParseHeader of %d bytes of a WWCHUNK2 chunk: %v, want ErrUnsupportedVersion", n, err)
		}
	}
	if err := CheckMagic(data); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("CheckMagic of a WWCHUNK2 chunk: %v, want ErrUnsupportedVersion", err)
	}
}

// readAsServer reads a chunk the way a query server does: the index
// prefix and the pre-aggregate block at the lengths the chunk was
// registered with, then every leaf extent the directory names, each body
// through CheckLeaf. A range past the end of the file is ErrCorrupt, as
// the server's read site reports it. It returns the first error.
func readAsServer(data []byte, indexLen, headerLen int) error {
	if len(data) < headerLen {
		return ErrCorrupt
	}
	idx, err := ParseHeader(data[:indexLen:indexLen])
	if err != nil {
		return err
	}
	if _, err := idx.WithAggs(data[indexLen:headerLen:headerLen]); err != nil {
		return err
	}
	for li, d := range idx.Dir {
		if d.Offset+d.Length > int64(len(data)) {
			return ErrCorrupt
		}
		if err := idx.CheckLeaf(li, data[d.Offset:d.Offset+d.Length]); err != nil {
			return err
		}
	}
	return nil
}

// TestGoldenChunkBitFlips flips every bit of the golden chunk in turn and
// reads each copy as a query server does. Every flip is caught by a sum or
// the magic — ErrCorrupt or ErrUnsupportedVersion — and none reads clean:
// no flipped byte can come back as a changed tuple.
func TestGoldenChunkBitFlips(t *testing.T) {
	data, err := os.ReadFile(golden.path)
	if err != nil {
		t.Fatal(err)
	}
	if err := readAsServer(data, golden.indexLen, golden.headerLen); err != nil {
		t.Fatalf("the unflipped chunk: %v", err)
	}
	for bit := 0; bit < 8*len(data); bit++ {
		flipped := bytes.Clone(data)
		flipped[bit/8] ^= 1 << (bit % 8)
		err := readAsServer(flipped, golden.indexLen, golden.headerLen)
		if err == nil {
			t.Fatalf("bit %d (byte %d): the flipped chunk reads clean", bit, bit/8)
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrUnsupportedVersion) {
			t.Fatalf("bit %d (byte %d): untyped error %v", bit, bit/8, err)
		}
	}
}
