package core

import (
	"testing"

	"waterwheel/internal/model"
)

// TestInsertBatchSteadyStateAllocs guards the SoA leaf's core promise: a
// steady-state InsertBatch performs no per-tuple heap allocations. Payload
// bytes land in the leaf arena (amortized append), keys/times/refs in the
// column buffers (amortized doubling), and the grouping scratch comes from
// a pool — so the per-tuple average must stay near zero, with a small
// tolerance for the amortized buffer growth the measurement window spans.
func TestInsertBatchSteadyStateAllocs(t *testing.T) {
	tree := NewTemplateTree(TemplateConfig{
		Keys:   model.KeyRange{Lo: 0, Hi: model.Key(1<<32 - 1)},
		Leaves: 64,
	})
	const batchSize = 256
	payload := []byte("0123456789abcdef")
	batch := make([]model.Tuple, batchSize)
	n := uint64(0)
	fill := func() {
		for i := range batch {
			batch[i] = model.Tuple{
				Key:     model.Key((n * 2654435761) % (1 << 32)),
				Time:    model.Timestamp(1000 + n),
				Payload: payload,
			}
			n++
		}
	}
	// Warm past initial column growth: leaves reach working capacity and
	// the scratch pool is populated.
	for i := 0; i < 100; i++ {
		fill()
		tree.InsertBatch(batch)
	}
	allocs := testing.AllocsPerRun(200, func() {
		fill()
		tree.InsertBatch(batch)
	})
	perTuple := allocs / batchSize
	t.Logf("InsertBatch steady state: %.2f allocs/batch, %.4f allocs/tuple", allocs, perTuple)
	if perTuple > 0.05 {
		t.Errorf("InsertBatch allocates %.4f per tuple (%.2f per %d-tuple batch), want ~0",
			perTuple, allocs, batchSize)
	}
}

// TestRangeScanAllocs guards the read side: a RangeCols scan over resident
// leaves allocates nothing — payloads are handed out as arena aliases and
// no tuple values are materialized. The Range compatibility shim is
// allowed exactly one allocation (its reused visitor tuple escaping).
func TestRangeScanAllocs(t *testing.T) {
	tree := NewTemplateTree(TemplateConfig{
		Keys:   model.KeyRange{Lo: 0, Hi: model.Key(1<<32 - 1)},
		Leaves: 16,
	})
	payload := []byte("0123456789abcdef")
	for i := uint64(0); i < 10000; i++ {
		tree.Insert(model.Tuple{
			Key:     model.Key((i * 2654435761) % (1 << 32)),
			Time:    model.Timestamp(1000 + i),
			Payload: payload,
		})
	}
	var sink int
	cols := testing.AllocsPerRun(20, func() {
		tree.RangeCols(model.FullKeyRange(), model.FullTimeRange(), nil, func(_ model.Key, _ model.Timestamp, p []byte) bool {
			sink += len(p)
			return true
		})
	})
	if cols > 0.5 {
		t.Errorf("RangeCols allocates %.2f per full scan, want 0", cols)
	}
	shim := testing.AllocsPerRun(20, func() {
		scan(tree, model.FullKeyRange(), model.FullTimeRange(), nil, func(tp *model.Tuple) bool {
			sink += len(tp.Payload)
			return true
		})
	})
	if shim > 1.5 {
		t.Errorf("Range shim allocates %.2f per full scan, want <= 1 (hoisted tuple only)", shim)
	}
	_ = sink
}
