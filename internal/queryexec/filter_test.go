package queryexec

import (
	"encoding/binary"
	"testing"
	"time"

	"waterwheel/internal/dfs"
	"waterwheel/internal/ingest"
	"waterwheel/internal/meta"
	"waterwheel/internal/model"
)

// TestPayloadFilterEndToEnd runs a payload-attribute equality through the
// full query path over flushed chunks, alone and inside an OR.
func TestPayloadFilterEndToEnd(t *testing.T) {
	fs := dfs.New(dfs.Config{Nodes: 1, Replication: 1, Seed: 1, Sleep: func(time.Duration) {}})
	ms := meta.NewServer(1)
	is := ingest.NewServer(ingest.Config{
		ID: 0, Keys: model.KeyRange{Lo: 0, Hi: 1 << 20}, ChunkBytes: 1 << 30, Leaves: 16,
	}, fs, ms, 0)

	// Attribute value correlates with key region: value = key / 4096.
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
	eq, err := coord.Execute(model.Query{
		Keys:   model.FullKeyRange(),
		Times:  model.FullTimeRange(),
		Filter: model.PayloadU64(0, model.CmpEQ, 7),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(eq.Tuples) != 4096 {
		t.Fatalf("got %d tuples, want 4096", len(eq.Tuples))
	}
	for _, tp := range eq.Tuples {
		if tp.Key/4096 != 7 {
			t.Fatalf("tuple with key %d matched attribute 7", tp.Key)
		}
	}

	// The same predicate inside an OR returns identical results.
	or, err := coord.Execute(model.Query{
		Keys:   model.FullKeyRange(),
		Times:  model.FullTimeRange(),
		Filter: model.Or(model.PayloadU64(0, model.CmpEQ, 7), model.False()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(or.Tuples) != len(eq.Tuples) {
		t.Fatalf("EQ and OR-shaped results differ: %d vs %d", len(eq.Tuples), len(or.Tuples))
	}
}
