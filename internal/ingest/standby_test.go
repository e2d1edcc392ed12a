package ingest

import (
	"testing"
	"time"

	"waterwheel/internal/dfs"
	"waterwheel/internal/meta"
	"waterwheel/internal/model"
	"waterwheel/internal/wal"
)

func encodeTuple(t model.Tuple) []byte {
	return model.AppendTuple(nil, &t)
}

// standbyEnv wires an active owner consuming a partition plus a standby: a
// passive server consuming the same partition. halt stops the standby's
// consumer and waits for it, as the cluster does before a promotion.
func standbyEnv(t *testing.T, chunkBytes int64) (owner, shadow *Server, p *wal.Partition, ms *meta.Server, halt, cleanup func()) {
	t.Helper()
	fs := dfs.New(dfs.Config{Nodes: 3, Replication: 2, Seed: 1, Sleep: func(time.Duration) {}})
	ms = meta.NewServer(1)
	// As in the cluster, the owner's flush commit is what wakes a standby
	// parked on a quiet partition.
	owner = NewServer(Config{ID: 0, ChunkBytes: chunkBytes, Leaves: 16, Epoch: ms.Epoch(0),
		TruncateWAL: func(int64) { shadow.Wake() }}, fs, ms, 0)
	shadow = NewServer(Config{ID: 0, ChunkBytes: chunkBytes, Leaves: 16, Passive: true}, fs, ms, 0)
	p = wal.NewPartition()
	run := func(srv *Server) (stop func()) {
		ch, done := make(chan struct{}), make(chan struct{})
		go func() { defer close(done); srv.Consume(p, ch) }()
		return func() { close(ch); srv.Wake(); <-done }
	}
	stopOwner, halt := run(owner), run(shadow)
	cleanup = func() {
		stopOwner()
		owner.Close()
	}
	return owner, shadow, p, ms, halt, cleanup
}

func appendTuples(t *testing.T, p *wal.Partition, lo, n int) {
	t.Helper()
	for i := lo; i < lo+n; i++ {
		tu := model.Tuple{Key: model.Key(i), Time: model.Timestamp(1000 + i), Payload: []byte{byte(i)}}
		if _, err := p.Append(encodeTuple(tu)); err != nil {
			t.Fatal(err)
		}
	}
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func TestStandbyShadowsOwner(t *testing.T) {
	_, shadow, p, _, halt, cleanup := standbyEnv(t, 1<<30)
	defer cleanup()
	appendTuples(t, p, 0, 50)
	if err := shadow.WaitApplied(p.Next(), nil); err != nil {
		t.Fatal(err)
	}
	// The shadow indexed every unflushed record but flushed nothing. Halted,
	// it keeps its position live for the promotion.
	halt()
	if err := shadow.consumed.Err(); err != nil {
		t.Fatalf("halting the standby failed its position: %v", err)
	}
	shadow.Activate(2)
	if got := shadow.MemLen(); got != 50 {
		t.Fatalf("shadow memtable holds %d tuples, want 50", got)
	}
}

func TestStandbyResetsOnOwnerCommit(t *testing.T) {
	owner, shadow, p, ms, halt, cleanup := standbyEnv(t, 1<<30)
	defer cleanup()
	appendTuples(t, p, 0, 40)
	waitCond(t, "owner catch-up", func() bool { return owner.Consumed() == p.Next() })
	waitCond(t, "standby catch-up", func() bool { return shadow.Consumed() == p.Next() })
	// The owner flushes: its committed offset passes the standby's base,
	// so the shadow must drop its tuples and their counts and resume at the
	// commit — woken by the commit itself, with nothing appended after it.
	if _, ok := owner.Flush(); !ok {
		t.Fatal("owner flush did not happen")
	}
	committed := ms.Offset(0)
	if committed != p.Next() {
		t.Fatalf("committed = %d, head = %d", committed, p.Next())
	}
	waitCond(t, "standby reset", func() bool {
		return shadow.MemLen() == 0 && shadow.Stats().Ingested.Load() == 0 && shadow.Consumed() == committed
	})
	appendTuples(t, p, 40, 10)
	waitCond(t, "standby resume", func() bool { return shadow.Consumed() == p.Next() })
	halt()
	shadow.Activate(2)
	if got, ingested := shadow.MemLen(), shadow.Stats().Ingested.Load(); got != 10 || ingested != 10 {
		t.Fatalf("shadow holds %d tuples and counts %d after reset, want only the 10 post-commit ones", got, ingested)
	}
}

func TestPromoteAfterFenceResumesExactlyOnce(t *testing.T) {
	owner, shadow, p, ms, halt, cleanup := standbyEnv(t, 1<<30)
	appendTuples(t, p, 0, 30)
	waitCond(t, "owner catch-up", func() bool { return owner.Consumed() == p.Next() })
	waitCond(t, "standby catch-up", func() bool { return shadow.Consumed() == p.Next() })
	cleanup() // owner crashes (consumer detached)

	halt()
	epoch, _, err := ms.TransferOwnership(0)
	if err != nil {
		t.Fatal(err)
	}
	shadow.Activate(epoch)
	if shadow.epoch.Load() != epoch {
		t.Fatalf("promoted epoch = %d, want %d", shadow.epoch.Load(), epoch)
	}
	// The promoted server resumes consumption from its own replay
	// position, not the (stale) metadata offset — no duplicate replay.
	srv := shadow
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { defer close(done); srv.Consume(p, stop) }()
	appendTuples(t, p, 30, 5)
	waitCond(t, "promoted catch-up", func() bool { return srv.Consumed() == p.Next() })
	close(stop)
	<-done
	if got := srv.MemLen(); got != 35 {
		t.Fatalf("promoted memtable holds %d tuples, want 35", got)
	}
	got := memQuery(srv, model.FullKeyRange(), model.FullTimeRange())
	seen := map[model.Key]int{}
	for _, tu := range got {
		seen[tu.Key]++
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("key %d appears %d times", k, n)
		}
	}
	if len(seen) != 35 {
		t.Fatalf("%d distinct keys, want 35", len(seen))
	}
	srv.Close()
}

func TestFencedOwnerCannotRegister(t *testing.T) {
	fs := dfs.New(dfs.Config{Nodes: 1, Replication: 1, Seed: 1, Sleep: func(time.Duration) {}})
	ms := meta.NewServer(1)
	owner := NewServer(Config{ID: 0, ChunkBytes: 1 << 30, Epoch: ms.Epoch(0)}, fs, ms, 0)
	for i := 0; i < 20; i++ {
		owner.Insert(model.Tuple{Key: model.Key(i), Time: model.Timestamp(i), Payload: []byte("x")})
	}
	if _, _, err := ms.TransferOwnership(0); err != nil {
		t.Fatal(err)
	}
	if _, ok := owner.Flush(); ok {
		t.Fatal("deposed owner's flush reported success")
	}
	if !owner.fenced.Load() {
		t.Fatal("owner not marked fenced")
	}
	if ms.ChunkCount() != 0 {
		t.Fatal("fenced flush registered chunks")
	}
	if ms.Offset(0) != 0 {
		t.Fatal("fenced flush committed an offset")
	}
	owner.Close()
}
