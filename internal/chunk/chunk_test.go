package chunk

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"waterwheel/internal/core"
	"waterwheel/internal/model"
)

// buildSnapshot makes a flush snapshot via a real template tree.
func buildSnapshot(t testing.TB, n int, leaves int) *core.FlushSnapshot {
	t.Helper()
	tree := core.NewTemplateTree(core.TemplateConfig{
		Keys: model.KeyRange{Lo: 0, Hi: model.Key(n * 2)}, Leaves: leaves,
	})
	for i := 0; i < n; i++ {
		tree.Insert(model.Tuple{
			Key:     model.Key(i * 2),
			Time:    model.Timestamp(1000 + i),
			Payload: []byte{byte(i), byte(i >> 8)},
		})
	}
	snap := tree.FlushReset()
	if snap == nil {
		t.Fatal("nil snapshot")
	}
	return snap
}

// leafTuples decodes leaf li through DecodeColumns — the one leaf decode —
// and presents the columns as tuples. Payloads alias body.
func leafTuples(h *Header, li int, body []byte) ([]model.Tuple, error) {
	var cols LeafColumns
	if err := h.DecodeColumns(li, body, &cols); err != nil {
		return nil, err
	}
	out := make([]model.Tuple, len(cols.Keys))
	for j := range out {
		out[j] = model.Tuple{
			Key:     cols.Keys[j],
			Time:    cols.Times[j],
			Payload: cols.Payload[cols.Starts[j]:cols.Starts[j+1]],
		}
	}
	return out, nil
}

func TestBuildAndParseRoundTrip(t *testing.T) {
	snap := buildSnapshot(t, 500, 8)
	data, meta, err := Build(snap, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Count != 500 || meta.Leaves != 8 || meta.Size != int64(len(data)) {
		t.Fatalf("meta = %+v", meta)
	}
	h, err := ParseHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	if h.Count != 500 || h.Leaves != 8 || h.Size != meta.Size || h.HeaderLen != meta.HeaderLen || h.IndexLen != meta.IndexLen {
		t.Fatalf("header = %+v", h.Meta)
	}
	if h.MinTime != 1000 || h.MaxTime != 1499 {
		t.Errorf("time bounds [%d,%d]", h.MinTime, h.MaxTime)
	}
	if len(h.Bounds) != 7 || len(h.Dir) != 8 {
		t.Fatalf("bounds=%d dir=%d", len(h.Bounds), len(h.Dir))
	}
	// Every tuple is recoverable and globally sorted.
	total := 0
	var prev model.Key
	for i, d := range h.Dir {
		tuples, err := leafTuples(h, i, data[d.Offset:d.Offset+d.Length])
		if err != nil {
			t.Fatalf("leaf %d: %v", i, err)
		}
		if len(tuples) != d.Count {
			t.Fatalf("leaf %d count %d != dir %d", i, len(tuples), d.Count)
		}
		for _, tp := range tuples {
			if total > 0 && tp.Key < prev {
				t.Fatal("tuples out of order")
			}
			prev = tp.Key
			total++
		}
	}
	if total != 500 {
		t.Fatalf("recovered %d tuples", total)
	}
}

func TestSelectLeavesKeyPruning(t *testing.T) {
	snap := buildSnapshot(t, 800, 16)
	data, _, _ := Build(snap, BuildOptions{})
	h, _ := ParseHeader(data)
	// A narrow key range should touch few leaves.
	read, _ := h.SelectLeaves(model.KeyRange{Lo: 100, Hi: 120}, model.FullTimeRange(), true)
	if len(read) == 0 || len(read) > 3 {
		t.Fatalf("narrow range reads %d leaves", len(read))
	}
	// Full range touches all non-empty leaves.
	read, _ = h.SelectLeaves(model.FullKeyRange(), model.FullTimeRange(), true)
	if len(read) != 16 {
		t.Fatalf("full range reads %d leaves, want 16", len(read))
	}
	// Inverted ranges read nothing.
	if r, _ := h.SelectLeaves(model.KeyRange{Lo: 10, Hi: 5}, model.FullTimeRange(), true); r != nil {
		t.Error("inverted key range selected leaves")
	}
}

func TestSelectLeavesTimePruning(t *testing.T) {
	// Keys spread evenly but times correlate with keys, so distant time
	// windows prune by per-leaf min/max.
	tree := core.NewTemplateTree(core.TemplateConfig{Keys: model.KeyRange{Lo: 0, Hi: 1000}, Leaves: 8})
	for i := 0; i < 1000; i++ {
		tree.Insert(model.Tuple{Key: model.Key(i), Time: model.Timestamp(i * 1000)})
	}
	data, _, _ := Build(tree.FlushReset(), BuildOptions{})
	h, _ := ParseHeader(data)
	read, pruned := h.SelectLeaves(model.FullKeyRange(), model.TimeRange{Lo: 0, Hi: 50_000}, true)
	if len(read) != 1 || pruned != 7 {
		t.Fatalf("read=%d pruned=%d, want 1/7", len(read), pruned)
	}
}

func TestBloomPrunesSparseTimes(t *testing.T) {
	// A leaf covering a wide min/max but with sparse time buckets: bloom
	// prunes windows inside gaps that min/max cannot.
	tree := core.NewTemplateTree(core.TemplateConfig{Keys: model.KeyRange{Lo: 0, Hi: 100}, Leaves: 1})
	for i := 0; i < 50; i++ {
		tree.Insert(model.Tuple{Key: model.Key(i), Time: 0})
		tree.Insert(model.Tuple{Key: model.Key(i + 50), Time: 10_000_000})
	}
	data, _, _ := Build(tree.FlushReset(), BuildOptions{})
	h, _ := ParseHeader(data)
	// Window in the gap: min/max overlap, bloom says no.
	read, pruned := h.SelectLeaves(model.FullKeyRange(), model.TimeRange{Lo: 5_000_000, Hi: 5_010_000}, true)
	if len(read) != 0 || pruned != 1 {
		t.Errorf("bloom failed to prune gap window: read=%d pruned=%d", len(read), pruned)
	}
	// Same window without bloom reads the leaf.
	read, _ = h.SelectLeaves(model.FullKeyRange(), model.TimeRange{Lo: 5_000_000, Hi: 5_010_000}, false)
	if len(read) != 1 {
		t.Errorf("without bloom, expected to read the leaf")
	}
	// Window covering data is never pruned.
	read, _ = h.SelectLeaves(model.FullKeyRange(), model.TimeRange{Lo: 0, Hi: 500}, true)
	if len(read) != 1 {
		t.Errorf("covered window wrongly pruned")
	}
}

func TestDisableBloom(t *testing.T) {
	snap := buildSnapshot(t, 100, 4)
	data, _, err := Build(snap, BuildOptions{DisableBloom: true})
	if err != nil {
		t.Fatal(err)
	}
	h, err := ParseHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, sk := range h.Sketches {
		if sk != nil {
			t.Errorf("leaf %d has a sketch despite DisableBloom", i)
		}
	}
}

func TestScanLeaf(t *testing.T) {
	snap := buildSnapshot(t, 400, 4)
	data, _, _ := Build(snap, BuildOptions{})
	h, _ := ParseHeader(data)
	// Scan every leaf with a key+time+predicate filter; compare to decode.
	kr := model.KeyRange{Lo: 100, Hi: 600}
	tr := model.TimeRange{Lo: 1100, Hi: 1300}
	f := model.KeyMod(4, 0)
	var scanned []model.Tuple
	var cols LeafColumns
	for li, d := range h.Dir {
		err := h.ScanLeafColsWith(&cols, li, data[d.Offset:d.Offset+d.Length], kr, tr, f, func(k model.Key, ts model.Timestamp, p []byte) bool {
			scanned = append(scanned, model.Tuple{Key: k, Time: ts, Payload: append([]byte(nil), p...)})
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	want := 0
	for li, d := range h.Dir {
		tuples, _ := leafTuples(h, li, data[d.Offset:d.Offset+d.Length])
		for i := range tuples {
			tp := &tuples[i]
			if kr.Contains(tp.Key) && tr.Contains(tp.Time) && f.Matches(tp) {
				want++
			}
		}
	}
	if len(scanned) != want || want == 0 {
		t.Fatalf("scanned %d, want %d (>0)", len(scanned), want)
	}
}

func TestScanLeafEarlyStop(t *testing.T) {
	snap := buildSnapshot(t, 100, 1)
	data, _, _ := Build(snap, BuildOptions{})
	h, _ := ParseHeader(data)
	n := 0
	d := h.Dir[0]
	var cols LeafColumns
	h.ScanLeafColsWith(&cols, 0, data[d.Offset:d.Offset+d.Length], model.FullKeyRange(), model.FullTimeRange(), nil,
		func(model.Key, model.Timestamp, []byte) bool { n++; return n < 5 })
	if n != 5 {
		t.Errorf("visited %d", n)
	}
}

func TestParseCorrupt(t *testing.T) {
	snap := buildSnapshot(t, 50, 2)
	data, meta, _ := Build(snap, BuildOptions{})
	if _, err := ParseHeader(data[:8]); err == nil {
		t.Error("short prefix accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := ParseHeader(bad); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ParseHeader(data[:meta.HeaderLen-1]); err == nil {
		t.Error("truncated header accepted")
	}
	// The magic's version byte is the only version check: the row format
	// of early builds, the unsummed v2 and any future format are refused
	// by name.
	for _, version := range []byte{'1', '2', '4'} {
		other := append([]byte(nil), data...)
		other[7] = version
		if _, err := ParseHeader(other); !errors.Is(err, ErrUnsupportedVersion) {
			t.Errorf("ParseHeader of a WWCHUNK%c file: %v, want ErrUnsupportedVersion", version, err)
		}
		if err := CheckMagic(other[:8]); !errors.Is(err, ErrUnsupportedVersion) {
			t.Errorf("CheckMagic of a WWCHUNK%c file: %v, want ErrUnsupportedVersion", version, err)
		}
	}
}

// TestIndexPrefixPlusAggsIsTheWholeHeader: the header a query server
// assembles from its two cache units — ParseHeader of the index prefix,
// then WithAggs of the pre-aggregate block — is the header ParseHeader
// reads from the whole block, with and without sketches and for the
// committed fixture. A cut one byte either side of the prefix is corrupt.
func TestIndexPrefixPlusAggsIsTheWholeHeader(t *testing.T) {
	snap := buildMixedSnapshot(t, 1200, 8, 5)
	fixture, err := os.ReadFile(golden.path)
	if err != nil {
		t.Fatal(err)
	}
	type built struct {
		data []byte
		meta Meta
	}
	cases := map[string]built{"golden": {fixture, Meta{IndexLen: golden.indexLen, HeaderLen: golden.headerLen}}}
	for _, noBloom := range []bool{false, true} {
		data, meta, err := Build(snap, BuildOptions{DisableBloom: noBloom})
		if err != nil {
			t.Fatal(err)
		}
		cases[fmt.Sprintf("bloom=%v", !noBloom)] = built{data, meta}
	}
	for name, c := range cases {
		whole, err := ParseHeader(c.data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if whole.IndexLen != c.meta.IndexLen || whole.HeaderLen != c.meta.HeaderLen || !whole.HasAgg {
			t.Fatalf("%s: parsed index/header length %d/%d (aggs %v), built %d/%d",
				name, whole.IndexLen, whole.HeaderLen, whole.HasAgg, c.meta.IndexLen, c.meta.HeaderLen)
		}
		if _, err := whole.WithAggs(c.data[whole.IndexLen:whole.HeaderLen]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: WithAggs on a header with its block loaded: %v", name, err)
		}
		// Three-index slices throughout: the parser must not reach into the
		// bytes past what it was given.
		idx, err := ParseHeader(c.data[:whole.IndexLen:whole.IndexLen])
		if err != nil {
			t.Fatalf("%s: index prefix: %v", name, err)
		}
		if idx.HasAgg || idx.LeafAggs != nil || idx.IndexLen >= idx.HeaderLen {
			t.Fatalf("%s: index-only header: hasAgg=%v aggs=%d index/header %d/%d",
				name, idx.HasAgg, len(idx.LeafAggs), idx.IndexLen, idx.HeaderLen)
		}
		got, err := idx.WithAggs(c.data[whole.IndexLen:whole.HeaderLen:whole.HeaderLen])
		if err != nil {
			t.Fatalf("%s: WithAggs: %v", name, err)
		}
		if !reflect.DeepEqual(got, whole) {
			t.Fatalf("%s: index prefix + pre-aggregates differ from the whole header", name)
		}
		if idx.HasAgg || idx.LeafAggs != nil {
			t.Fatalf("%s: WithAggs modified the index-only header it copied", name)
		}
		for _, cut := range []int{whole.IndexLen - 1, whole.IndexLen + 1} {
			if _, err := ParseHeader(c.data[:cut:cut]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: a %d-byte prefix (index prefix %d): %v, want ErrCorrupt", name, cut, whole.IndexLen, err)
			}
		}
		if _, err := idx.WithAggs(c.data[whole.IndexLen : whole.HeaderLen-1 : whole.HeaderLen-1]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: a short pre-aggregate block: %v, want ErrCorrupt", name, err)
		}
	}
}

func TestBuildEmptyFails(t *testing.T) {
	if _, _, err := Build(nil, BuildOptions{}); err == nil {
		t.Error("nil snapshot accepted")
	}
	if _, _, err := Build(&core.FlushSnapshot{}, BuildOptions{}); err == nil {
		t.Error("empty snapshot accepted")
	}
}

func TestSingleLeafChunk(t *testing.T) {
	tree := core.NewTemplateTree(core.TemplateConfig{Keys: model.KeyRange{Lo: 0, Hi: 10}, Leaves: 1})
	tree.Insert(model.Tuple{Key: 5, Time: 7, Payload: []byte("p")})
	data, meta, err := Build(tree.FlushReset(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := ParseHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	if h.Leaves != 1 || len(h.Bounds) != 0 || meta.Count != 1 {
		t.Fatalf("h=%+v meta=%+v", h.Meta, meta)
	}
	tuples, _ := leafTuples(h, 0, data[h.Dir[0].Offset:h.Dir[0].Offset+h.Dir[0].Length])
	if len(tuples) != 1 || tuples[0].Key != 5 || string(tuples[0].Payload) != "p" {
		t.Fatalf("tuples = %v", tuples)
	}
}

// TestParseHeaderNeverPanics flips random bytes in valid chunks, restamps
// their sums so the flips reach the parser, and checks the parser fails
// cleanly rather than panicking or over-reading.
func TestParseHeaderNeverPanics(t *testing.T) {
	snap := buildSnapshot(t, 300, 8)
	data, meta, _ := Build(snap, BuildOptions{})
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 500; trial++ {
		bad := append([]byte(nil), data...)
		flips := 1 + rng.Intn(4)
		for f := 0; f < flips; f++ {
			pos := rng.Intn(meta.HeaderLen)
			bad[pos] ^= byte(1 + rng.Intn(255))
		}
		bad = restamp(bad)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d panicked: %v", trial, r)
				}
			}()
			h, err := ParseHeader(bad)
			if err != nil || h == nil {
				return // clean rejection (or flip hit ignorable bits)
			}
			// If it parsed, leaf selection and scans must stay in bounds.
			read, _ := h.SelectLeaves(model.FullKeyRange(), model.FullTimeRange(), true)
			for _, li := range read {
				d := h.Dir[li]
				if d.Offset < 0 || d.Length < 0 || d.Offset+d.Length > int64(len(bad)) {
					return // out-of-range extents are the caller's bounds check
				}
				var cols LeafColumns
				h.ScanLeafColsWith(&cols, li, bad[d.Offset:d.Offset+d.Length], model.FullKeyRange(), model.FullTimeRange(), nil,
					func(model.Key, model.Timestamp, []byte) bool { return true })
			}
		}()
	}
}

// TestTruncatedChunkDataErrors: scans over truncated leaf extents must
// error, not panic.
func TestTruncatedChunkDataErrors(t *testing.T) {
	snap := buildSnapshot(t, 100, 2)
	data, _, _ := Build(snap, BuildOptions{})
	h, _ := ParseHeader(data)
	d := h.Dir[0]
	if d.Length < 10 {
		t.Skip("leaf too small")
	}
	var cols LeafColumns
	err := h.ScanLeafColsWith(&cols, 0, data[d.Offset:d.Offset+d.Length-5], model.FullKeyRange(), model.FullTimeRange(), nil,
		func(model.Key, model.Timestamp, []byte) bool { return true })
	if err == nil {
		t.Fatal("truncated leaf scanned without error")
	}
}
