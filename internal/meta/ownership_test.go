package meta

import (
	"errors"
	"testing"

	"waterwheel/internal/model"
)

func TestTransferOwnershipFences(t *testing.T) {
	s := NewServer(2)
	if got := s.Epoch(0); got != 1 {
		t.Fatalf("initial epoch = %d, want 1", got)
	}
	info := ChunkInfo{Path: "c1", Region: model.Region{Keys: model.KeyRange{Lo: 0, Hi: 10}}, Server: 0}
	regs, err := s.RegisterFlushOwned(0, 1, []ChunkInfo{info}, 5)
	if err != nil || len(regs) != 1 {
		t.Fatalf("owned register: %v %v", regs, err)
	}
	if got := s.Offset(0); got != 5 {
		t.Fatalf("offset = %d, want 5", got)
	}

	epoch, keys, err := s.TransferOwnership(0)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 {
		t.Fatalf("epoch after transfer = %d, want 2", epoch)
	}
	if want := s.Schema().IntervalOf(0); keys != want {
		t.Fatalf("transfer keys = %v, want %v", keys, want)
	}

	// The deposed incarnation (epoch 1) must register nothing.
	before := s.ChunkCount()
	if _, err := s.RegisterFlushOwned(0, 1, []ChunkInfo{info}, 9); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale register err = %v, want ErrFenced", err)
	}
	if s.ChunkCount() != before {
		t.Fatal("fenced register mutated the chunk registry")
	}
	if got := s.Offset(0); got != 5 {
		t.Fatalf("fenced register moved offset to %d", got)
	}
	if _, err := s.RegisterFlushOwned(0, 1, nil, 9); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale offset-only commit err = %v, want ErrFenced", err)
	}
	// The new owner (epoch 2) proceeds.
	if _, err := s.RegisterFlushOwned(0, 2, []ChunkInfo{info}, 9); err != nil {
		t.Fatalf("current-epoch register: %v", err)
	}
	if got := s.Offset(0); got != 9 {
		t.Fatalf("offset = %d, want 9", got)
	}
	// Offsets only move forward.
	if _, err := s.RegisterFlushOwned(0, 2, nil, 3); err != nil {
		t.Fatal(err)
	}
	if got := s.Offset(0); got != 9 {
		t.Fatalf("offset regressed to %d", got)
	}
}

func TestAddServerSplitsInterval(t *testing.T) {
	s := NewServer(2)
	old := s.Schema()
	kr := old.IntervalOf(1)
	at := kr.Lo + (kr.Hi-kr.Lo)/2 + 1
	sch, id, err := s.AddServer(1, at)
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 {
		t.Fatalf("new slot id = %d, want 2", id)
	}
	if sch.ActiveCount() != 3 || sch.Servers != 3 {
		t.Fatalf("active=%d servers=%d, want 3/3", sch.ActiveCount(), sch.Servers)
	}
	if got := sch.IntervalOf(1); got.Lo != kr.Lo || got.Hi != at-1 {
		t.Fatalf("split slot interval = %v, want [%d,%d]", got, kr.Lo, at-1)
	}
	if got := sch.IntervalOf(2); got.Lo != at || got.Hi != kr.Hi {
		t.Fatalf("new slot interval = %v, want [%d,%d]", got, at, kr.Hi)
	}
	if sch.ServerFor(at) != 2 || sch.ServerFor(at-1) != 1 {
		t.Fatal("ServerFor does not respect the split key")
	}
	if s.Epoch(2) != 1 {
		t.Fatalf("new slot epoch = %d, want 1", s.Epoch(2))
	}
	// Split key outside the interval is rejected.
	if _, _, err := s.AddServer(0, kr.Hi); err == nil {
		t.Fatal("split at foreign key accepted")
	}
}

func TestRemoveServerMergesInterval(t *testing.T) {
	s := NewServer(3)
	full := model.FullKeyRange()
	mid := s.Schema().IntervalOf(1)
	sch, err := s.RemoveServer(1)
	if err != nil {
		t.Fatal(err)
	}
	if sch.ActiveCount() != 2 || sch.Servers != 3 {
		t.Fatalf("active=%d servers=%d, want 2/3", sch.ActiveCount(), sch.Servers)
	}
	if sch.Active(1) {
		t.Fatal("removed slot still active")
	}
	// Slot 1's interval merged into its left neighbor.
	if got := sch.IntervalOf(0); got.Hi != mid.Hi {
		t.Fatalf("left neighbor Hi = %d, want %d", got.Hi, mid.Hi)
	}
	if got := sch.IntervalOf(1); got.Lo <= got.Hi {
		t.Fatalf("retired slot interval %v not empty", got)
	}
	if sch.ServerFor(mid.Lo) != 0 {
		t.Fatal("merged keys not routed to the absorbing neighbor")
	}
	// Removing the leftmost merges right.
	if _, err := s.RemoveServer(0); err != nil {
		t.Fatal(err)
	}
	sch = s.Schema()
	if got := sch.IntervalOf(2); got != full {
		t.Fatalf("last slot interval = %v, want full domain", got)
	}
	// The last active slot cannot be removed.
	if _, err := s.RemoveServer(2); err == nil {
		t.Fatal("removed the last active slot")
	}
}

func TestElasticStateSnapshotRoundTrip(t *testing.T) {
	s := NewServer(2)
	kr := s.Schema().IntervalOf(1)
	at := kr.Lo + (kr.Hi-kr.Lo)/2 + 1
	if _, _, err := s.AddServer(1, at); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.TransferOwnership(0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RemoveServer(1); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	a, b := s.Schema(), r.Schema()
	if a.Version != b.Version || a.Servers != b.Servers || len(a.Slots) != len(b.Slots) {
		t.Fatalf("schema mismatch: %+v vs %+v", a, b)
	}
	for i := range a.Slots {
		if a.Slots[i] != b.Slots[i] {
			t.Fatalf("slots mismatch: %v vs %v", a.Slots, b.Slots)
		}
	}
	for i := 0; i < a.Servers; i++ {
		if s.Epoch(i) != r.Epoch(i) {
			t.Fatalf("epoch[%d] = %d vs %d", i, s.Epoch(i), r.Epoch(i))
		}
	}
	// A transfer on the restored server yields the same epoch sequence.
	e1, _, _ := s.TransferOwnership(0)
	e2, _, _ := r.TransferOwnership(0)
	if e1 != e2 {
		t.Fatalf("post-restore transfer epochs diverge: %d vs %d", e1, e2)
	}
}

func TestSetSchemaOverActiveSlots(t *testing.T) {
	s := NewServer(3)
	if _, err := s.RemoveServer(2); err != nil {
		t.Fatal(err)
	}
	// Two active slots now: exactly one bound accepted.
	if _, err := s.SetSchema([]model.Key{1 << 32}); err != nil {
		t.Fatal(err)
	}
	sch := s.Schema()
	if sch.ServerFor(0) != 0 || sch.ServerFor(1<<33) != 1 {
		t.Fatal("routing after SetSchema over active slots broken")
	}
	if _, err := s.SetSchema([]model.Key{1, 2}); err == nil {
		t.Fatal("bound count not validated against active slots")
	}
}

// TestStartGenerationNeverReusesAnEpoch: a process claims every slot in an
// epoch generation of its own, so the epochs it hands out later — in memory,
// snapshotted only at the next checkpoint — cannot come back after a crash
// that restores the older snapshot.
func TestStartGenerationNeverReusesAnEpoch(t *testing.T) {
	s := NewServer(2)
	s.RegisterFlushOwned(1, s.Epoch(1), nil, 40)
	s.StartGeneration()
	first := s.Epoch(0)
	if first>>epochGenShift != 1 || s.Epoch(1) != first {
		t.Fatalf("claimed epochs %#x, %#x; want the first of generation 1", first, s.Epoch(1))
	}
	if got := s.Offset(1); got != 40 {
		t.Fatalf("claim moved the committed offset to %d, want 40", got)
	}
	// The previous owner (epoch 1) is fenced by the claim.
	if _, err := s.RegisterFlushOwned(0, 1, nil, 7); !errors.Is(err, ErrFenced) {
		t.Fatalf("pre-claim epoch still writes: %v", err)
	}
	durable, err := s.Snapshot() // what a checkpoint right after Open holds
	if err != nil {
		t.Fatal(err)
	}
	// Later, in memory only: two takeovers and a new slot.
	used := map[int64]bool{first: true}
	for i := 0; i < 2; i++ {
		e, _, _ := s.TransferOwnership(0)
		used[e] = true
	}
	_, id, err := s.AddServer(0, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if e := s.Epoch(id); e>>epochGenShift != 1 {
		t.Fatalf("slot added in generation 1 starts at epoch %#x", e)
	}
	used[s.Epoch(id)] = true

	// Crash: the next process restores the older snapshot and claims.
	r, err := Restore(durable)
	if err != nil {
		t.Fatal(err)
	}
	r.StartGeneration()
	for i := 0; i < 4; i++ {
		if e, _, _ := r.TransferOwnership(0); used[e] {
			t.Fatalf("epoch %#x handed out by two processes", e)
		}
	}
	if used[r.Epoch(1)] || r.Epoch(1)>>epochGenShift != 2 {
		t.Fatalf("second process claimed epoch %#x", r.Epoch(1))
	}
}
