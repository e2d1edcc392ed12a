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

// standbyEnv wires an active owner consuming a partition plus a standby
// tailing the same partition.
func standbyEnv(t *testing.T, chunkBytes int64) (*Server, *Standby, *wal.Partition, *meta.Server, func()) {
	t.Helper()
	fs := dfs.New(dfs.Config{Nodes: 3, Replication: 2, Seed: 1, Sleep: func(time.Duration) {}})
	ms := meta.NewServer(1)
	// As in the cluster, the owner's flush commit is what wakes a standby
	// parked on a quiet partition.
	var sb *Standby
	owner := NewServer(Config{ID: 0, ChunkBytes: chunkBytes, Leaves: 16, Epoch: ms.Epoch(0),
		ReleaseWAL: func(int64) { sb.Wake() }}, fs, ms, 0)
	p := wal.NewPartition()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { defer close(done); owner.Consume(p, stop) }()
	sb = NewStandby(StandbyConfig{
		Slot: 0,
		NewServer: func() *Server {
			return NewServer(Config{ID: 0, ChunkBytes: chunkBytes, Leaves: 16, Passive: true}, fs, ms, 0)
		},
	}, ms, p)
	sb.Start()
	cleanup := func() {
		close(stop)
		<-done
		owner.Close()
	}
	return owner, sb, p, ms, cleanup
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
	_, sb, p, _, cleanup := standbyEnv(t, 1<<30)
	defer cleanup()
	appendTuples(t, p, 0, 50)
	if err := sb.WaitReplayed(p.Next(), nil); err != nil {
		t.Fatal(err)
	}
	// The shadow indexed every unflushed record but reported no live
	// region and flushed nothing.
	sb.Halt()
	srv := sb.Promote(2)
	if got := srv.MemLen(); got != 50 {
		t.Fatalf("shadow memtable holds %d tuples, want 50", got)
	}
}

func TestStandbyResetsOnOwnerCommit(t *testing.T) {
	owner, sb, p, ms, cleanup := standbyEnv(t, 1<<30)
	defer cleanup()
	appendTuples(t, p, 0, 40)
	waitCond(t, "owner catch-up", func() bool { return owner.Consumed() == p.Next() })
	waitCond(t, "standby catch-up", func() bool { return sb.Consumed() == p.Next() })
	// The owner flushes: its committed offset passes the standby's base,
	// so the shadow must reset and re-tail from the commit.
	if _, ok := owner.Flush(); !ok {
		t.Fatal("owner flush did not happen")
	}
	committed := ms.Offset(0)
	if committed != p.Next() {
		t.Fatalf("committed = %d, head = %d", committed, p.Next())
	}
	waitCond(t, "standby reset", func() bool {
		sb.mu.Lock()
		base := sb.base
		sb.mu.Unlock()
		return base == committed && sb.Consumed() >= committed
	})
	appendTuples(t, p, 40, 10)
	waitCond(t, "standby tail resume", func() bool { return sb.Consumed() == p.Next() })
	sb.Halt()
	srv := sb.Promote(2)
	if got := srv.MemLen(); got != 10 {
		t.Fatalf("shadow holds %d tuples after reset, want only the 10 post-commit ones", got)
	}
}

func TestPromoteAfterFenceResumesExactlyOnce(t *testing.T) {
	owner, sb, p, ms, cleanup := standbyEnv(t, 1<<30)
	appendTuples(t, p, 0, 30)
	waitCond(t, "owner catch-up", func() bool { return owner.Consumed() == p.Next() })
	waitCond(t, "standby catch-up", func() bool { return sb.Consumed() == p.Next() })
	cleanup() // owner crashes (consumer detached)

	epoch, _, err := ms.TransferOwnership(0, sb.Consumed())
	if err != nil {
		t.Fatal(err)
	}
	sb.Halt()
	srv := sb.Promote(epoch)
	if srv.Epoch() != epoch {
		t.Fatalf("promoted epoch = %d, want %d", srv.Epoch(), epoch)
	}
	// The promoted server resumes consumption from its own replay
	// position, not the (stale) metadata offset — no duplicate replay.
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
	if _, _, err := ms.TransferOwnership(0, 0); err != nil {
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
