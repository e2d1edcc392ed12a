package core

import (
	"math/rand"
	"testing"

	"waterwheel/internal/model"
)

// TestSnapshotRangeMatchesTree: FlushSnapshot.RangeCols over a swapped-out
// snapshot returns exactly what TemplateTree.RangeCols returned for the same
// predicate before the swap — the property the async flush pipeline's
// visibility guarantee stands on.
func TestSnapshotRangeMatchesTree(t *testing.T) {
	tree := NewTemplateTree(TemplateConfig{Keys: model.KeyRange{Lo: 0, Hi: 1000}, Leaves: 8})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		tree.Insert(model.Tuple{
			Key:     model.Key(rng.Intn(1001)),
			Time:    model.Timestamp(rng.Intn(1000)),
			Payload: []byte{byte(i)},
		})
	}
	queries := []struct {
		kr model.KeyRange
		tr model.TimeRange
	}{
		{model.FullKeyRange(), model.FullTimeRange()},
		{model.KeyRange{Lo: 100, Hi: 400}, model.FullTimeRange()},
		{model.FullKeyRange(), model.TimeRange{Lo: 250, Hi: 750}},
		{model.KeyRange{Lo: 300, Hi: 301}, model.TimeRange{Lo: 0, Hi: 500}},
		{model.KeyRange{Lo: 900, Hi: 100}, model.FullTimeRange()}, // invalid: Lo > Hi
	}
	collect := func(rangeFn func(model.KeyRange, model.TimeRange, *model.Filter, ColsVisitor), kr model.KeyRange, tr model.TimeRange) []model.Tuple {
		var out []model.Tuple
		rangeFn(kr, tr, nil, func(k model.Key, ts model.Timestamp, _ []byte) bool {
			out = append(out, model.Tuple{Key: k, Time: ts})
			return true
		})
		return out
	}
	want := make([][]model.Tuple, len(queries))
	for i, q := range queries {
		want[i] = collect(tree.RangeCols, q.kr, q.tr)
	}
	snap := tree.FlushReset()
	if snap == nil {
		t.Fatal("FlushReset returned nil for a non-empty tree")
	}
	for i, q := range queries {
		got := collect(snap.RangeCols, q.kr, q.tr)
		if len(got) != len(want[i]) {
			t.Fatalf("query %d: snapshot returned %d tuples, tree returned %d", i, len(got), len(want[i]))
		}
		for j := range got {
			if got[j].Key != want[i][j].Key || got[j].Time != want[i][j].Time {
				t.Fatalf("query %d tuple %d: snapshot %v != tree %v", i, j, got[j], want[i][j])
			}
		}
	}
	// The tree is empty post-swap while the snapshot still answers.
	if n := len(collect(tree.RangeCols, model.FullKeyRange(), model.FullTimeRange())); n != 0 {
		t.Fatalf("tree still returns %d tuples after FlushReset", n)
	}
}

// TestSnapshotRangeEarlyStop: the visitor's false return stops the scan.
func TestSnapshotRangeEarlyStop(t *testing.T) {
	tree := NewTemplateTree(TemplateConfig{Keys: model.KeyRange{Lo: 0, Hi: 100}, Leaves: 4})
	for i := 0; i < 50; i++ {
		tree.Insert(model.Tuple{Key: model.Key(i), Time: model.Timestamp(i)})
	}
	snap := tree.FlushReset()
	seen := 0
	snap.RangeCols(model.FullKeyRange(), model.FullTimeRange(), nil, func(model.Key, model.Timestamp, []byte) bool {
		seen++
		return seen < 10
	})
	if seen != 10 {
		t.Fatalf("visited %d tuples, want 10", seen)
	}
	// Nil snapshot and out-of-window scans are no-ops, not panics.
	var nilSnap *FlushSnapshot
	nilSnap.RangeCols(model.FullKeyRange(), model.FullTimeRange(), nil, func(model.Key, model.Timestamp, []byte) bool { return true })
	snap.RangeCols(model.FullKeyRange(), model.TimeRange{Lo: 1000, Hi: 2000}, nil, func(model.Key, model.Timestamp, []byte) bool {
		t.Fatal("visited a tuple outside the snapshot's time window")
		return false
	})
}

// TestSnapshotIsolationUnderMutation: after FlushReset, no amount of
// mutation on the live tree — single inserts, batch merges, template
// rebuilds, further flushes — may change a single byte of the snapshot's
// columns or arena. The SoA swap hands the snapshot the leaf's buffers
// wholesale and restarts the leaf from nil, so any sharing bug (a column
// still referenced by the live leaf, an arena appended to in place) shows
// up as a diff against the pinned copy.
func TestSnapshotIsolationUnderMutation(t *testing.T) {
	tree := NewTemplateTree(TemplateConfig{
		Keys: model.KeyRange{Lo: 0, Hi: 1 << 16}, Leaves: 8,
		SkewThreshold: 0.3, CheckEvery: 16,
	})
	rng := rand.New(rand.NewSource(11))
	mkPayload := func(i int) []byte {
		p := make([]byte, 3+i%5)
		for j := range p {
			p[j] = byte(i + j)
		}
		return p
	}
	for i := 0; i < 700; i++ {
		tree.Insert(model.Tuple{
			Key:     model.Key(rng.Intn(1 << 16)),
			Time:    model.Timestamp(rng.Intn(10_000)),
			Payload: mkPayload(i),
		})
	}
	snap := tree.FlushReset()
	if snap == nil {
		t.Fatal("FlushReset returned nil")
	}
	// Deep-copy the snapshot's logical contents.
	type row struct {
		k  model.Key
		ts model.Timestamp
		p  string
	}
	capture := func() []row {
		var rows []row
		snap.RangeCols(model.FullKeyRange(), model.FullTimeRange(), nil, func(k model.Key, ts model.Timestamp, p []byte) bool {
			rows = append(rows, row{k, ts, string(p)})
			return true
		})
		return rows
	}
	before := capture()
	if len(before) != 700 {
		t.Fatalf("snapshot holds %d rows, want 700", len(before))
	}

	// Hammer the live tree: skewed inserts force template updates and
	// column/arena regrowth; interleave batches and more flushes.
	for round := 0; round < 5; round++ {
		batch := make([]model.Tuple, 200)
		for i := range batch {
			batch[i] = model.Tuple{
				Key:     model.Key(rng.Intn(64)), // skewed
				Time:    model.Timestamp(rng.Intn(10_000)),
				Payload: mkPayload(i * round),
			}
		}
		tree.InsertBatch(batch)
		tree.UpdateTemplate()
		for i := 0; i < 100; i++ {
			tree.Insert(model.Tuple{
				Key:     model.Key(rng.Intn(1 << 16)),
				Time:    model.Timestamp(rng.Intn(10_000)),
				Payload: mkPayload(i),
			})
		}
		tree.FlushReset() // later snapshots must not disturb this one
	}

	after := capture()
	if len(after) != len(before) {
		t.Fatalf("snapshot row count changed under live mutation: %d -> %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("snapshot row %d changed under live mutation: %+v -> %+v", i, before[i], after[i])
		}
	}
}
