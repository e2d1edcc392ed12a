package queryexec

import (
	"encoding/binary"
	"testing"
	"time"

	"waterwheel/internal/chunk"
	"waterwheel/internal/dfs"
	"waterwheel/internal/ingest"
	"waterwheel/internal/meta"
	"waterwheel/internal/model"
)

// TestSecondaryIndexEndToEnd exercises the §VIII extension through the
// full query path: chunks built with a secondary attribute index, a query
// whose filter pins the attribute, and leaf pruning observable in the
// result counters.
func TestSecondaryIndexEndToEnd(t *testing.T) {
	fs := dfs.New(dfs.Config{Nodes: 1, Replication: 1, Seed: 1, Sleep: func(time.Duration) {}})
	ms := meta.NewServer(1)
	is := ingest.NewServer(ingest.Config{
		ID: 0, Keys: model.KeyRange{Lo: 0, Hi: 1 << 20}, ChunkBytes: 1 << 30, Leaves: 16,
		Bloom: chunk.BuildOptions{Secondary: &chunk.SecondarySpec{Offset: 0}},
	}, fs, ms, 0)

	// Attribute value correlates with key region: value = key / 4096, so
	// each template leaf holds few distinct values.
	const n = 16 * 4096
	for i := 0; i < n; i++ {
		payload := make([]byte, 8)
		binary.BigEndian.PutUint64(payload, uint64(i)/4096)
		is.Insert(model.Tuple{Key: model.Key(i), Time: model.Timestamp(i), Payload: payload})
	}
	is.Flush()

	coord := NewCoordinator(CoordinatorConfig{MemExecutors: func() []MemExecutor { return memExecs(is) }}, ms, fs)
	qs := NewServer(ServerConfig{ID: 0, Node: 0, CacheBytes: 1 << 20}, fs, ms)
	coord.AddQueryServer(qs)

	// Query the full key range but pin the attribute to one value.
	withSec, err := coord.Execute(model.Query{
		Keys:   model.FullKeyRange(),
		Times:  model.FullTimeRange(),
		Filter: model.PayloadU64(0, model.CmpEQ, 7),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(withSec.Tuples) != 4096 {
		t.Fatalf("got %d tuples, want 4096", len(withSec.Tuples))
	}
	if withSec.LeavesSkipped == 0 {
		t.Fatal("secondary index pruned nothing")
	}
	if withSec.LeavesRead > 3 {
		t.Fatalf("read %d leaves despite secondary pruning", withSec.LeavesRead)
	}

	// The same predicate shaped so pruning cannot apply (inside an OR)
	// still returns identical results — pruning is purely an optimization.
	noPrune, err := coord.Execute(model.Query{
		Keys:   model.FullKeyRange(),
		Times:  model.FullTimeRange(),
		Filter: model.Or(model.PayloadU64(0, model.CmpEQ, 7), model.False()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(noPrune.Tuples) != len(withSec.Tuples) {
		t.Fatalf("pruned and unpruned results differ: %d vs %d", len(withSec.Tuples), len(noPrune.Tuples))
	}
	if noPrune.LeavesRead <= withSec.LeavesRead {
		t.Errorf("expected OR-shaped filter to read more leaves (%d vs %d)",
			noPrune.LeavesRead, withSec.LeavesRead)
	}
}
