package dfs

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func newTestFS(nodes, repl int) *FS {
	return New(Config{Nodes: nodes, Replication: repl, Seed: 1, Sleep: func(time.Duration) {}})
}

// locations returns a file's replica nodes, nil when it is not there.
func locations(fs *FS, name string) []int {
	return fs.LocationsBatch([]string{name})[0]
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs := newTestFS(4, 3)
	data := []byte("hello chunk data")
	if err := fs.Write("chunks/1", data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Read("chunks/1")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatalf("read %q", got)
	}
	if sz, _ := fs.Size("chunks/1"); sz != int64(len(data)) {
		t.Errorf("size = %d", sz)
	}
}

func TestWriteExistingFails(t *testing.T) {
	fs := newTestFS(2, 1)
	fs.Write("a", []byte("x"))
	if err := fs.Write("a", []byte("y")); !errors.Is(err, ErrExists) {
		t.Errorf("err = %v", err)
	}
}

func TestReadMissing(t *testing.T) {
	fs := newTestFS(2, 1)
	if _, err := fs.Read("ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
	if _, err := fs.Size("ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("size err = %v", err)
	}
	if err := fs.Delete("ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("delete err = %v", err)
	}
}

func TestReadAtRanges(t *testing.T) {
	fs := newTestFS(2, 1)
	fs.Write("f", []byte("0123456789"))
	got, _, err := fs.ReadAt("f", 3, 4, -1)
	if err != nil || string(got) != "3456" {
		t.Fatalf("ReadAt = %q, %v", got, err)
	}
	got, _, err = fs.ReadAt("f", 5, -1, -1)
	if err != nil || string(got) != "56789" {
		t.Fatalf("tail read = %q, %v", got, err)
	}
	if _, _, err = fs.ReadAt("f", 5, 10, -1); !errors.Is(err, ErrBadRange) {
		t.Errorf("overlong read err = %v", err)
	}
	if _, _, err = fs.ReadAt("f", -1, 2, -1); !errors.Is(err, ErrBadRange) {
		t.Errorf("negative offset err = %v", err)
	}
	// Zero-length read at end is legal.
	if _, _, err = fs.ReadAt("f", 10, 0, -1); err != nil {
		t.Errorf("empty read at EOF: %v", err)
	}
}

func TestReplicationPlacement(t *testing.T) {
	fs := newTestFS(8, 3)
	for i := 0; i < 50; i++ {
		fs.Write(fmt.Sprintf("f%d", i), []byte("data"))
	}
	for i := 0; i < 50; i++ {
		locs := locations(fs, fmt.Sprintf("f%d", i))
		if len(locs) != 3 {
			t.Fatalf("file %d has %d replicas", i, len(locs))
		}
		seen := map[int]bool{}
		for _, n := range locs {
			if n < 0 || n >= 8 || seen[n] {
				t.Fatalf("bad replica set %v", locs)
			}
			seen[n] = true
		}
	}
}

func TestReplicationClamped(t *testing.T) {
	fs := New(Config{Nodes: 2, Replication: 5, Sleep: func(time.Duration) {}})
	fs.Write("f", []byte("x"))
	locs := locations(fs, "f")
	if len(locs) != 2 {
		t.Errorf("replicas = %v, want 2", locs)
	}
}

func TestLocalityDetection(t *testing.T) {
	fs := newTestFS(4, 2)
	fs.Write("f", []byte("abc"))
	locs := locations(fs, "f")
	_, info, err := fs.ReadAt("f", 0, -1, locs[0])
	if err != nil || !info.Local || info.Node != locs[0] {
		t.Errorf("co-located read not local: %+v, %v", info, err)
	}
	// A node not holding a replica reads remotely.
	other := 0
	for n := 0; n < 4; n++ {
		isRep := false
		for _, r := range locs {
			if r == n {
				isRep = true
			}
		}
		if !isRep {
			other = n
			break
		}
	}
	_, info, err = fs.ReadAt("f", 0, -1, other)
	if err != nil || info.Local {
		t.Errorf("remote read flagged local: %+v, %v", info, err)
	}
	m := fs.Metrics()
	if m.LocalReads.Load() != 1 || m.RemoteReads.Load() != 1 {
		t.Errorf("local=%d remote=%d", m.LocalReads.Load(), m.RemoteReads.Load())
	}
}

func TestNodeFailureAndRecovery(t *testing.T) {
	fs := newTestFS(3, 2)
	fs.Write("f", []byte("x"))
	locs := locations(fs, "f")
	// Kill one replica: still readable.
	fs.KillNode(locs[0])
	if _, err := fs.Read("f"); err != nil {
		t.Fatalf("read with one dead replica: %v", err)
	}
	// Kill all replicas: unavailable.
	fs.KillNode(locs[1])
	if _, err := fs.Read("f"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	// Revive: readable again.
	fs.ReviveNode(locs[0])
	if _, err := fs.Read("f"); err != nil {
		t.Fatalf("read after revive: %v", err)
	}
}

func TestWritePlacementAvoidsDeadNodes(t *testing.T) {
	fs := newTestFS(4, 2)
	fs.KillNode(0)
	fs.KillNode(1)
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("f%d", i)
		if err := fs.Write(name, []byte("x")); err != nil {
			t.Fatal(err)
		}
		locs := locations(fs, name)
		for _, n := range locs {
			if n == 0 || n == 1 {
				t.Fatalf("placed on dead node: %v", locs)
			}
		}
	}
	fs.KillNode(2)
	fs.KillNode(3)
	if err := fs.Write("doomed", []byte("x")); !errors.Is(err, ErrNoNodes) {
		t.Errorf("placement with no live nodes: %v", err)
	}
}

func TestLatencyCharged(t *testing.T) {
	var charged time.Duration
	fs := New(Config{
		Nodes: 2, Replication: 1, Seed: 1,
		Latency: LatencyModel{
			OpenMin: 2 * time.Millisecond, OpenMax: 2 * time.Millisecond,
			RemoteBytesPerSec: 1000, LocalBytesPerSec: 1 << 40,
		},
		Sleep: func(d time.Duration) { charged += d },
	})
	fs.Write("f", make([]byte, 500)) // write: open 2ms (no write bandwidth set)
	fs.ReadAt("f", 0, 500, -1)       // remote read: open 2ms + 500B at 1000B/s = 500ms
	want := 2*time.Millisecond + 2*time.Millisecond + 500*time.Millisecond
	if charged != want {
		t.Errorf("charged %v, want %v", charged, want)
	}
}

func TestDeleteFreesSpace(t *testing.T) {
	fs := newTestFS(2, 2)
	fs.Write("f", make([]byte, 100))
	if fs.NodeUsed(0) != 100 || fs.NodeUsed(1) != 100 {
		t.Fatalf("used = %d/%d", fs.NodeUsed(0), fs.NodeUsed(1))
	}
	fs.Delete("f")
	if fs.NodeUsed(0) != 0 || fs.NodeUsed(1) != 0 {
		t.Errorf("space not freed: %d/%d", fs.NodeUsed(0), fs.NodeUsed(1))
	}
	if len(fs.List()) != 0 {
		t.Error("file still listed")
	}
}

func TestConcurrentReadersWriters(t *testing.T) {
	fs := newTestFS(4, 2)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				name := fmt.Sprintf("g%d/f%d", g, i)
				if err := fs.Write(name, []byte(name)); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				got, err := fs.Read(name)
				if err != nil || string(got) != name {
					t.Errorf("read %s: %q, %v", name, got, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := len(fs.List()); n != 400 {
		t.Errorf("files = %d", n)
	}
}
