package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"waterwheel/internal/durable"
)

func newDiskFS(t *testing.T, dir string) *FS {
	t.Helper()
	fs, err := Open(Config{Nodes: 3, Replication: 2, Seed: 1, Dir: dir, Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestDiskPersistAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	fs := newDiskFS(t, dir)
	if err := fs.Write("chunks/a", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("chunks/b", []byte("beta")); err != nil {
		t.Fatal(err)
	}
	locsA, _ := fs.Locations("chunks/a")

	// "Restart": a fresh FS over the same directory serves the files.
	fs2 := newDiskFS(t, dir)
	got, err := fs2.Read("chunks/a")
	if err != nil || string(got) != "alpha" {
		t.Fatalf("reopened read: %q, %v", got, err)
	}
	got, _ = fs2.Read("chunks/b")
	if string(got) != "beta" {
		t.Fatalf("reopened read b: %q", got)
	}
	locsA2, err := fs2.Locations("chunks/a")
	if err != nil {
		t.Fatal(err)
	}
	if len(locsA2) != len(locsA) {
		t.Errorf("replica placement lost: %v vs %v", locsA2, locsA)
	}
	if n := len(fs2.List()); n != 2 {
		t.Errorf("listed %d files", n)
	}
}

func TestDiskDeletePersists(t *testing.T) {
	dir := t.TempDir()
	fs := newDiskFS(t, dir)
	fs.Write("x", []byte("1"))
	fs.Write("y", []byte("2"))
	if err := fs.Delete("x"); err != nil {
		t.Fatal(err)
	}
	fs2 := newDiskFS(t, dir)
	if _, err := fs2.Read("x"); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted file resurrected: %v", err)
	}
	if _, err := fs2.Read("y"); err != nil {
		t.Errorf("surviving file lost: %v", err)
	}
}

func TestDiskNameEscaping(t *testing.T) {
	dir := t.TempDir()
	fs := newDiskFS(t, dir)
	names := []string{"a/b/c", "weird%name", "a%2Fb", "plain"}
	for _, n := range names {
		if err := fs.Write(n, []byte(n)); err != nil {
			t.Fatalf("write %q: %v", n, err)
		}
	}
	fs2 := newDiskFS(t, dir)
	for _, n := range names {
		got, err := fs2.Read(n)
		if err != nil || string(got) != n {
			t.Fatalf("read %q: %q, %v", n, got, err)
		}
	}
}

func TestDiskShrunkCluster(t *testing.T) {
	dir := t.TempDir()
	fs, err := Open(Config{Nodes: 5, Replication: 3, Seed: 1, Dir: dir, Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	fs.Write("f", []byte("data"))
	// Reopen with fewer nodes: replicas out of range re-place on node 0.
	fs2, err := Open(Config{Nodes: 2, Replication: 1, Seed: 1, Dir: dir, Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs2.Read("f")
	if err != nil || string(got) != "data" {
		t.Fatalf("read after shrink: %q, %v", got, err)
	}
	locs, _ := fs2.Locations("f")
	for _, n := range locs {
		if n < 0 || n >= 2 {
			t.Fatalf("replica on nonexistent node: %v", locs)
		}
	}
}

func TestInMemoryModeUnaffected(t *testing.T) {
	fs := New(Config{Nodes: 2, Replication: 1, Sleep: func(time.Duration) {}})
	fs.Write("m", []byte("mem"))
	if got, _ := fs.Read("m"); string(got) != "mem" {
		t.Fatal("in-memory mode broken")
	}
}

// heapAlloc returns the live heap after a collection.
func heapAlloc() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// fileBody is the deterministic content of test file i: size bytes whose
// values depend on i and on their position, so a read of the wrong file or
// the wrong range cannot pass for the right one.
func fileBody(i, size int) []byte {
	b := make([]byte, size)
	for j := range b {
		b[j] = byte(i*31 + j + j>>8)
	}
	return b
}

// TestDirBackedBytesStayOffTheHeap: with a backing directory the heap holds
// a file's size and placement, not its bytes — neither after writing them
// nor after a reopen, which stats the files instead of loading them — and
// every file still reads back whole.
func TestDirBackedBytesStayOffTheHeap(t *testing.T) {
	const files, size = 32, 1 << 20 // K = 32 MiB
	dir := t.TempDir()
	fs := newDiskFS(t, dir)
	before := heapAlloc()
	for i := 0; i < files; i++ {
		if err := fs.Write(fmt.Sprintf("chunks/%d", i), fileBody(i, size)); err != nil {
			t.Fatal(err)
		}
	}
	if grew := heapAlloc() - before; grew > files*size/10 {
		t.Fatalf("heap grew by %d bytes after writing %d: the chunk bytes are still resident", grew, files*size)
	}
	runtime.KeepAlive(fs)

	before = heapAlloc()
	fs2 := newDiskFS(t, dir)
	if grew := heapAlloc() - before; grew > files*size/10 {
		t.Fatalf("heap grew by %d bytes on reopen over %d stored: the history was loaded", grew, files*size)
	}
	for i := 0; i < files; i++ {
		name := fmt.Sprintf("chunks/%d", i)
		got, err := fs2.Read(name)
		if err != nil || !bytes.Equal(got, fileBody(i, size)) {
			t.Fatalf("%s after reopen: %d bytes, %v", name, len(got), err)
		}
		part, _, err := fs2.ReadAt(name, 4097, 333, 0)
		if err != nil || !bytes.Equal(part, fileBody(i, size)[4097:4097+333]) {
			t.Fatalf("%s range read after reopen: %d bytes, %v", name, len(part), err)
		}
		if n, _ := fs2.Size(name); n != size {
			t.Fatalf("%s size %d after reopen", name, n)
		}
	}
	if grew := heapAlloc() - before; grew > files*size/10 {
		t.Fatalf("heap grew by %d bytes after reading everything back: reads are being retained", grew)
	}
	if _, _, err := fs2.ReadAt("chunks/0", size-10, 11, 0); !errors.Is(err, ErrBadRange) {
		t.Fatalf("read past the end = %v, want ErrBadRange", err)
	}
	runtime.KeepAlive(fs2)
}

// TestDirBackedReadRacesDelete: a read that races Delete returns the whole
// range it asked for or ErrNotFound — never part of it, never other bytes.
func TestDirBackedReadRacesDelete(t *testing.T) {
	const files, size = 48, 64 << 10
	fs := newDiskFS(t, t.TempDir())
	for i := 0; i < files; i++ {
		if err := fs.Write(fmt.Sprintf("f%d", i), fileBody(i, size)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			// Each reader sweeps the files until it has seen every one gone.
			for gone := 0; gone < files; {
				gone = 0
				for i := 0; i < files; i++ {
					off := int64((i*977 + r*131) % (size / 2))
					got, _, err := fs.ReadAt(fmt.Sprintf("f%d", i), off, size/2, r%3)
					switch {
					case errors.Is(err, ErrNotFound):
						gone++
					case err != nil:
						t.Errorf("f%d: %v", i, err)
						return
					case !bytes.Equal(got, fileBody(i, size)[off:off+size/2]):
						t.Errorf("f%d: a read racing Delete returned %d torn or foreign bytes", i, len(got))
						return
					}
				}
			}
		}(r)
	}
	for i := 0; i < files; i++ {
		if err := fs.Delete(fmt.Sprintf("f%d", i)); err != nil {
			t.Error(err)
		}
		runtime.Gosched()
	}
	wg.Wait()
}

// TestDirSizeMismatchIsTypedOpenError: a backing file whose length is not
// the manifest's fails Open with ErrSizeMismatch — the check that replaced
// reading every file — and a missing one fails it too.
func TestDirSizeMismatchIsTypedOpenError(t *testing.T) {
	dir := t.TempDir()
	fs := newDiskFS(t, dir)
	fs.Write("a", []byte("alpha"))
	fs.Write("b", []byte("beta"))
	if err := os.Truncate(fs.diskPath("b"), 2); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Nodes: 3, Replication: 2, Seed: 1, Dir: dir, Sleep: func(time.Duration) {}}
	if _, err := Open(cfg); !errors.Is(err, ErrSizeMismatch) {
		t.Fatalf("open over a truncated backing file = %v, want ErrSizeMismatch", err)
	}
	if err := os.Remove(fs.diskPath("b")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(cfg); err == nil || errors.Is(err, ErrSizeMismatch) {
		t.Fatalf("open over a missing backing file = %v, want a load error", err)
	}
}

// TestSyncCoversFilesManifestAndDirectory: Write does not fsync; Sync does,
// for every file written since the last one, then the manifest naming them,
// then the directory — and owes it all again after a failure. Nothing is
// owed twice, a deleted file is skipped, and in memory it is a no-op.
func TestSyncCoversFilesManifestAndDirectory(t *testing.T) {
	dir := t.TempDir()
	var ops []string
	var fail string
	files := &durable.Files{Hook: func(op durable.Op, path string) error {
		rel, _ := filepath.Rel(dir, path)
		ops = append(ops, string(op)+" "+rel)
		if rel == fail {
			fail = ""
			return errors.New("injected fsync failure")
		}
		return nil
	}}
	fs, err := Open(Config{Nodes: 3, Replication: 2, Seed: 1, Dir: dir, Files: files, Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	syncOps := func() []string {
		t.Helper()
		ops = nil
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		return ops
	}
	if got := syncOps(); len(got) != 0 {
		t.Fatalf("Sync over a fresh directory did %v", got)
	}
	fs.Write("chunks/a", []byte("alpha"))
	fs.Write("chunks/b", []byte("beta"))
	if len(ops) != 0 {
		t.Fatalf("Write synced by itself: %v", ops)
	}
	want := []string{"sync chunks%2Fa", "sync chunks%2Fb", "sync " + manifestName, "sync ."}
	if got := syncOps(); !slices.Equal(got, want) {
		t.Fatalf("Sync did %v, want %v", got, want)
	}
	if got := syncOps(); len(got) != 0 {
		t.Fatalf("a second Sync with nothing written did %v", got)
	}

	// A failure leaves everything owed; a delete owes the manifest alone.
	fs.Write("chunks/c", []byte("gamma"))
	fs.Write("chunks/d", []byte("delta"))
	fs.Delete("chunks/c")
	fail, ops = manifestName, nil
	if err := fs.Sync(); err == nil {
		t.Fatal("Sync swallowed an fsync failure")
	}
	want = []string{"sync chunks%2Fc", "sync chunks%2Fd", "sync " + manifestName, "sync ."}
	if got := syncOps(); !slices.Equal(got, want) {
		t.Fatalf("Sync after a failed one did %v, want %v", got, want)
	}
	fs.Delete("chunks/d")
	if got := syncOps(); !slices.Equal(got, want[2:]) {
		t.Fatalf("Sync after a delete did %v, want %v", got, want[2:])
	}

	mem := New(Config{Nodes: 1, Files: files})
	mem.Write("x", []byte("y"))
	ops = nil
	if err := mem.Sync(); err != nil || len(ops) != 0 {
		t.Fatalf("in-memory Sync: %v, ops %v", err, ops)
	}
}
