package chunk

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"waterwheel/internal/core"
	"waterwheel/internal/model"
	"waterwheel/internal/workload"
)

// buildMixedSnapshot makes a snapshot whose payloads vary in size, with
// only some carrying a full uint64 aggregate field — the shape that
// exercises Values < Count in the pre-aggregate paths.
func buildMixedSnapshot(t testing.TB, n, leaves int, seed int64) *core.FlushSnapshot {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tree := core.NewTemplateTree(core.TemplateConfig{
		Keys: model.KeyRange{Lo: 0, Hi: model.Key(n)}, Leaves: leaves,
	})
	for i := 0; i < n; i++ {
		var payload []byte
		if rng.Intn(4) > 0 { // 3/4 carry the aggregate field
			payload = make([]byte, 8+rng.Intn(8))
			binary.BigEndian.PutUint64(payload, uint64(rng.Intn(10_000)))
		} else {
			payload = make([]byte, rng.Intn(8)) // too short for the field
		}
		tree.Insert(model.Tuple{
			Key:     model.Key(rng.Intn(n)),
			Time:    model.Timestamp(1_000_000 + rng.Intn(60_000)),
			Payload: payload,
		})
	}
	snap := tree.FlushReset()
	if snap == nil {
		t.Fatal("nil snapshot")
	}
	return snap
}

// collect runs a range query against a parsed chunk the way a query
// server does — leaf selection then per-leaf scans — and returns the
// matching tuples.
func collect(t *testing.T, h *Header, data []byte, kr model.KeyRange, tr model.TimeRange) []model.Tuple {
	t.Helper()
	var out []model.Tuple
	var cols LeafColumns
	read, _ := h.SelectLeaves(kr, tr, true)
	for _, li := range read {
		d := h.Dir[li]
		err := h.ScanLeafColsWith(&cols, li, data[d.Offset:d.Offset+d.Length], kr, tr, nil, func(k model.Key, ts model.Timestamp, p []byte) bool {
			out = append(out, model.Tuple{Key: k, Time: ts, Payload: append([]byte(nil), p...)})
			return true
		})
		if err != nil {
			t.Fatalf("leaf %d: %v", li, err)
		}
	}
	return out
}

// TestChunkQueryEquivalence checks that random range queries against a
// built chunk — leaf selection with bloom pruning, then columnar scans —
// return exactly what a brute-force filter over the snapshot's own columns
// does: the encoding and the pruning lose and invent nothing.
func TestChunkQueryEquivalence(t *testing.T) {
	snap := buildMixedSnapshot(t, 2000, 16, 42)
	data, meta, err := Build(snap, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Count != snap.Count || meta.Keys != snap.Keys || meta.MinTime != snap.MinTime || meta.MaxTime != snap.MaxTime {
		t.Fatalf("meta %+v diverged from snapshot", meta)
	}
	h, err := ParseHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		kr := model.FullKeyRange()
		tr := model.FullTimeRange()
		if trial > 0 { // trial 0 checks the full region
			a, b := model.Key(rng.Intn(2000)), model.Key(rng.Intn(2000))
			if a > b {
				a, b = b, a
			}
			kr = model.KeyRange{Lo: a, Hi: b}
			x, y := 1_000_000+rng.Intn(60_000), 1_000_000+rng.Intn(60_000)
			if x > y {
				x, y = y, x
			}
			tr = model.TimeRange{Lo: model.Timestamp(x), Hi: model.Timestamp(y)}
		}
		var want []model.Tuple
		for li := range snap.Leaves {
			lc := &snap.Leaves[li]
			for j := range lc.Keys {
				if kr.Contains(lc.Keys[j]) && tr.Contains(lc.Times[j]) {
					want = append(want, model.Tuple{Key: lc.Keys[j], Time: lc.Times[j], Payload: lc.Payload(j)})
				}
			}
		}
		got := collect(t, h, data, kr, tr)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d tuples from the chunk, %d from the snapshot", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].Key != want[i].Key || got[i].Time != want[i].Time || string(got[i].Payload) != string(want[i].Payload) {
				t.Fatalf("trial %d tuple %d: %+v vs %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// bruteAgg folds tuples matching tr into a partial the slow way.
func bruteAgg(tuples []model.Tuple, tr model.TimeRange, field uint32) model.AggPartial {
	var p model.AggPartial
	for i := range tuples {
		if tr.Contains(tuples[i].Time) {
			p.AddTuple(&tuples[i], field)
		}
	}
	return p
}

// TestAggFoldEquivalence checks every pre-aggregate shortcut against a
// brute-force fold over the decoded tuples: the chunk-level summary in
// Meta.Agg, the whole-leaf fold, and the partial-range bucket fold plus
// complementary scan that together answer a boundary leaf.
func TestAggFoldEquivalence(t *testing.T) {
	snap := buildMixedSnapshot(t, 1500, 8, 99)
	data, meta, err := Build(snap, BuildOptions{BucketMillis: 1000})
	if err != nil {
		t.Fatal(err)
	}
	h, err := ParseHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	if !h.HasAgg || meta.Agg == nil {
		t.Fatal("chunk missing pre-aggregates")
	}

	// Chunk-level: Meta.Agg vs all tuples.
	var all []model.Tuple
	for li, d := range h.Dir {
		tuples, err := leafTuples(h, li, data[d.Offset:d.Offset+d.Length])
		if err != nil {
			t.Fatalf("leaf %d: %v", li, err)
		}
		all = append(all, tuples...)

		// Whole-leaf fold vs brute force over the leaf.
		var got model.AggPartial
		if !h.FoldLeafAggAll(li, false, &got) {
			if d.Count > 0 {
				t.Fatalf("leaf %d: no pre-aggregates", li)
			}
			continue
		}
		want := bruteAgg(tuples, model.FullTimeRange(), h.AggField)
		if got != want {
			t.Fatalf("leaf %d whole-leaf fold: %+v != %+v", li, got, want)
		}
	}
	want := bruteAgg(all, model.FullTimeRange(), meta.Agg.Field)
	if meta.Agg.AggPartial != want {
		t.Fatalf("chunk agg %+v != brute %+v", meta.Agg.AggPartial, want)
	}

	// Partial-range: bucket fold + excluded scan vs brute force, over
	// random time windows per leaf.
	rng := rand.New(rand.NewSource(3))
	var cols LeafColumns
	for li, d := range h.Dir {
		if d.Count == 0 {
			continue
		}
		tuples, _ := leafTuples(h, li, data[d.Offset:d.Offset+d.Length])
		for trial := 0; trial < 50; trial++ {
			span := int64(d.MaxT - d.MinT + 1)
			lo := int64(d.MinT) + rng.Int63n(span+2000) - 1000
			hi := lo + rng.Int63n(span+2000)
			tr := model.TimeRange{Lo: model.Timestamp(lo), Hi: model.Timestamp(hi)}
			var got model.AggPartial
			var ex *model.TimeRange
			if w, ok := h.FoldLeafAgg(li, tr, false, &got); ok {
				ex = &w
			}
			err := h.AggregateLeaf(li, data[d.Offset:d.Offset+d.Length], &cols,
				model.FullKeyRange(), tr, nil, ex, h.AggField, false, &got)
			if err != nil {
				t.Fatal(err)
			}
			if want := bruteAgg(tuples, tr, h.AggField); got != want {
				t.Fatalf("leaf %d window [%d,%d]: fold+scan %+v != brute %+v", li, lo, hi, got, want)
			}
		}
	}
}

// TestV2CompressionRatio is the regression guard for the columnar
// encoding: on the standard T-Drive-like workload (sorted clustered
// z-order keys, near-constant arrival cadence, fixed 16-byte payloads) a
// chunk — header, sketches and pre-aggregates included — must spend at
// most 0.7× the bytes the same tuples take in the row encoding of the
// wire and the WAL (model.AppendTuple).
func TestV2CompressionRatio(t *testing.T) {
	gen := workload.NewTDrive(workload.TDriveConfig{Taxis: 500, Seed: 11})
	tree := core.NewTemplateTree(core.TemplateConfig{Keys: gen.KeySpan(), Leaves: 64})
	const n = 20_000
	rowBytes := 0
	for i := 0; i < n; i++ {
		tp := gen.Next()
		rowBytes += model.EncodedSize(&tp)
		tree.Insert(tp)
	}
	snap := tree.FlushReset()
	if snap == nil {
		t.Fatal("nil snapshot")
	}
	data, _, err := Build(snap, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rows := float64(rowBytes) / n
	cols := float64(len(data)) / n
	t.Logf("bytes/tuple: rows=%.1f chunk=%.1f ratio=%.2f", rows, cols, cols/rows)
	if cols > 0.7*rows {
		t.Fatalf("chunk bytes/tuple %.1f exceeds 0.7× the row encoding (%.1f)", cols, 0.7*rows)
	}
}

// TestExtremeTimestampsBuild: a leaf whose timestamps reach both ends of the
// domain — what any client may send — builds, parses and reads back; its
// pre-aggregates either tile it exactly or are left out, never a panic. (A
// bucket span past MaxInt64 once wrapped negative and the build panicked,
// taking the flusher and the server with it.)
func TestExtremeTimestampsBuild(t *testing.T) {
	for _, times := range [][]model.Timestamp{
		{model.MinTimestamp, -5, 7, model.MaxTimestamp},
		{model.MinTimestamp + 1, model.MinTimestamp + 2},
		{model.MaxTimestamp - 1, model.MaxTimestamp},
		{-1 << 62, 1 << 62},
	} {
		tree := core.NewTemplateTree(core.TemplateConfig{Keys: model.KeyRange{Lo: 0, Hi: 100}, Leaves: 1})
		for i, ts := range times {
			tree.Insert(model.Tuple{Key: model.Key(i), Time: ts, Payload: []byte{byte(i)}})
		}
		data, _, err := Build(tree.FlushReset(), BuildOptions{BucketMillis: 1000})
		if err != nil {
			t.Fatalf("times %v: %v", times, err)
		}
		h, err := ParseHeader(data)
		if err != nil {
			t.Fatalf("times %v: %v", times, err)
		}
		d := h.Dir[0]
		got, err := leafTuples(h, 0, data[d.Offset:d.Offset+d.Length])
		if err != nil || len(got) != len(times) {
			t.Fatalf("times %v: read back %d tuples, %v", times, len(got), err)
		}
		var agg model.AggPartial
		if h.FoldLeafAggAll(0, true, &agg) && agg.Count != uint64(len(times)) {
			t.Fatalf("times %v: the buckets count %d tuples, want %d", times, agg.Count, len(times))
		}
	}
}
