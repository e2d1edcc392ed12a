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
	locsA := locations(fs, "chunks/a")

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
	if locsA2 := locations(fs2, "chunks/a"); len(locsA) != 2 || !slices.Equal(locsA2, locsA) {
		t.Errorf("replica placement changed across the reopen: %v vs %v", locsA2, locsA)
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
	// Reopen with fewer nodes: placement is derived from the nodes there are.
	fs2, err := Open(Config{Nodes: 2, Replication: 1, Seed: 1, Dir: dir, Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs2.Read("f")
	if err != nil || string(got) != "data" {
		t.Fatalf("read after shrink: %q, %v", got, err)
	}
	locs := locations(fs2, "f")
	if len(locs) != 1 || locs[0] < 0 || locs[0] >= 2 {
		t.Fatalf("replicas after the shrink: %v, want one of nodes 0 and 1", locs)
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

// TestReopenBuildsTableFromDirectory: the backing directory is the file
// table. A reopen learns names (escaped ones included), sizes and per-node
// usage from it and from nothing else: a temporary file a dead writer left is
// removed, an entry no Write can have produced is not served (and not
// touched), and a manifest an older build left is one more plain file.
func TestReopenBuildsTableFromDirectory(t *testing.T) {
	dir := t.TempDir()
	fs := newDiskFS(t, dir)
	want := map[string]int{"a/b/c": 10, "weird%name": 200, "a%2Fb": 3000, "plain": 0, "chunks/is0-e1-c1": 40000}
	for name, size := range want {
		if err := fs.Write(name, fileBody(len(name), size)); err != nil {
			t.Fatalf("write %q: %v", name, err)
		}
	}
	if err := fs.Write("gone", []byte("deleted before the reopen")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	var used [3]int64
	for n := range used {
		used[n] = fs.NodeUsed(n)
	}
	leftover := fs.diskPath("chunks/is0-e1-c2") + tmpSuffix
	foreign := filepath.Join(dir, "not%ours")
	stale := filepath.Join(dir, "MANIFEST.json")
	const staleBody = `{"nodes":3,"files":[{"name":"ghost","size":5,"replicas":[0,1]}]}`
	for path, body := range map[string]string{
		leftover: "half a chunk",
		foreign:  "no Write encodes a name like this",
		stale:    staleBody,
	} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "subdir"), 0o755); err != nil {
		t.Fatal(err)
	}

	fs2 := newDiskFS(t, dir)
	want["MANIFEST.json"] = len(staleBody)
	got := fs2.List()
	slices.Sort(got)
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	slices.Sort(names)
	if !slices.Equal(got, names) {
		t.Fatalf("reopened table lists %q, want %q", got, names)
	}
	for name, size := range want {
		if n, err := fs2.Size(name); err != nil || n != int64(size) {
			t.Errorf("%q after reopen: size %d, %v, want %d", name, n, err, size)
		}
		if name == "MANIFEST.json" {
			continue
		}
		if body, err := fs2.Read(name); err != nil || !bytes.Equal(body, fileBody(len(name), size)) {
			t.Errorf("%q after reopen: %d bytes, %v", name, len(body), err)
		}
	}
	if _, err := fs2.Read("ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("a file only the stale manifest names: %v, want ErrNotFound", err)
	}
	if err := fs2.Delete("MANIFEST.json"); err != nil {
		t.Fatal(err)
	}
	for n := range used {
		if got := fs2.NodeUsed(n); got != used[n] {
			t.Errorf("node %d holds %d bytes after the reopen, %d before", n, got, used[n])
		}
	}
	if _, err := os.Stat(leftover); !os.IsNotExist(err) {
		t.Errorf("leftover temporary file after the reopen: %v, want it removed", err)
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Errorf("a file that is not ours was touched: %v", err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("MANIFEST.json after Delete: %v, want it unlinked like any file", err)
	}
}

// TestPlacementIsDerived: a file's replicas are a function of (Seed, name,
// live nodes) — the same in memory, on disk and after a reopen, distinct,
// on live nodes only, in range when Nodes shrinks, and even across nodes.
func TestPlacementIsDerived(t *testing.T) {
	const nodes, repl, files = 5, 3, 1000
	quiet := func(time.Duration) {}
	dir := t.TempDir()
	mem := New(Config{Nodes: nodes, Replication: repl, Seed: 7, Sleep: quiet})
	disk := New(Config{Nodes: nodes, Replication: repl, Seed: 7, Dir: dir, Sleep: quiet})
	other := New(Config{Nodes: nodes, Replication: repl, Seed: 8, Sleep: quiet})
	names := make([]string, files)
	for i := range names {
		names[i] = fmt.Sprintf("chunks/is%d-e%d-c%d", i%4, 1+i%3, i)
		for _, fs := range []*FS{mem, disk, other} {
			if err := fs.Write(names[i], []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
	}
	placed := mem.LocationsBatch(names)
	reopened := New(Config{Nodes: nodes, Replication: repl, Seed: 7, Dir: dir, Sleep: quiet})
	var perNode [nodes]int
	moved := 0
	for i, locs := range placed {
		if len(locs) != repl {
			t.Fatalf("%s has replicas %v, want %d", names[i], locs, repl)
		}
		seen := map[int]bool{}
		for _, n := range locs {
			if n < 0 || n >= nodes || seen[n] {
				t.Fatalf("%s: bad replica set %v", names[i], locs)
			}
			seen[n] = true
			perNode[n]++
		}
		for what, fs := range map[string]*FS{"on disk": disk, "after a reopen": reopened} {
			if got := locations(fs, names[i]); !slices.Equal(got, locs) {
				t.Fatalf("%s placed on %v %s, on %v in memory", names[i], got, what, locs)
			}
		}
		if !slices.Equal(locations(other, names[i]), locs) {
			moved++
		}
	}
	if moved < files/2 {
		t.Errorf("another Seed moved %d of %d files: placement ignores it", moved, files)
	}
	for n, got := range perNode {
		if even := files * repl / nodes; got < even*3/4 || got > even*5/4 {
			t.Errorf("node %d holds %d of %d replicas, want within 25%% of %d", n, got, files*repl, even)
		}
	}

	// Live nodes only, as many as there are; and none is ErrNoNodes.
	mem.KillNode(1)
	mem.KillNode(3)
	for i := 0; i < 50; i++ {
		name := fmt.Sprintf("late/%d", i)
		if err := mem.Write(name, []byte("x")); err != nil {
			t.Fatal(err)
		}
		locs := locations(mem, name)
		if len(locs) != repl || slices.Contains(locs, 1) || slices.Contains(locs, 3) {
			t.Fatalf("%s placed on %v with nodes 1 and 3 dead", name, locs)
		}
	}

	// Fewer nodes at the next Open: every replica is one of them.
	shrunk := New(Config{Nodes: 2, Replication: repl, Seed: 7, Dir: dir, Sleep: quiet})
	for i, locs := range shrunk.LocationsBatch(names) {
		slices.Sort(locs)
		if !slices.Equal(locs, []int{0, 1}) {
			t.Fatalf("%s on %v after shrinking to 2 nodes", names[i], locs)
		}
	}
}

// parkedRename is a durable.Files seam that holds the rename onto one path
// until released, and says when it got there.
type parkedRename struct {
	path             string
	entered, release chan struct{}
}

func parkRename(path string) (*parkedRename, *durable.Files) {
	p := &parkedRename{path: path, entered: make(chan struct{}), release: make(chan struct{})}
	return p, &durable.Files{Hook: func(op durable.Op, path string) error {
		if op == durable.OpRename && path == p.path {
			close(p.entered)
			<-p.release
		}
		return nil
	}}
}

// TestParkedWriteBlocksNobody: the chunk bytes go to disk outside the
// file-table lock. With one Write held at its rename, reads, lookups, a
// delete and another write all complete; the parked name is taken for a
// second writer and absent for a reader until the rename returns.
func TestParkedWriteBlocksNobody(t *testing.T) {
	dir := t.TempDir()
	parked, files := parkRename(filepath.Join(dir, "parked"))
	fs, err := Open(Config{Nodes: 3, Replication: 2, Seed: 1, Dir: dir, Files: files, Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		if err := fs.Write(name, []byte("body of "+name)); err != nil {
			t.Fatal(err)
		}
	}
	written := make(chan error, 1)
	go func() { written <- fs.Write("parked", []byte("late bytes")) }()
	<-parked.entered

	others := make(chan struct{})
	go func() {
		defer close(others)
		if got, _, err := fs.ReadAt("a", 8, 1, 0); err != nil || string(got) != "a" {
			t.Errorf("ReadAt beside a parked write: %q, %v", got, err)
		}
		if n, err := fs.Size("a"); err != nil || n != 9 {
			t.Errorf("Size beside a parked write: %d, %v", n, err)
		}
		if locs := fs.LocationsBatch([]string{"a", "parked"}); len(locs[0]) != 2 || locs[1] != nil {
			t.Errorf("LocationsBatch beside a parked write: %v, want a placed and parked absent", locs)
		}
		if err := fs.Delete("b"); err != nil {
			t.Errorf("Delete beside a parked write: %v", err)
		}
		if err := fs.Write("c", []byte("second writer")); err != nil {
			t.Errorf("Write beside a parked write: %v", err)
		}
		if err := fs.Write("parked", []byte("usurper")); !errors.Is(err, ErrExists) {
			t.Errorf("Write of the name being written: %v, want ErrExists", err)
		}
		if _, _, err := fs.ReadAt("parked", 0, -1, 0); !errors.Is(err, ErrNotFound) {
			t.Errorf("ReadAt of the name being written: %v, want ErrNotFound", err)
		}
		if slices.Contains(fs.List(), "parked") {
			t.Error("the name being written is listed")
		}
	}()
	select {
	case <-others:
	case <-time.After(30 * time.Second):
		t.Fatal("an operation on another file waits for the parked write")
	}
	close(parked.release)
	if err := <-written; err != nil {
		t.Fatal(err)
	}
	if got, err := fs.Read("parked"); err != nil || string(got) != "late bytes" {
		t.Fatalf("the parked file once written: %q, %v", got, err)
	}
}

// TestFailedWriteLeavesNothing: a Write whose rename fails publishes nothing,
// leaves no file under either name, and the same name can be written again.
func TestFailedWriteLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	fail := true
	files := &durable.Files{Hook: func(op durable.Op, path string) error {
		if op == durable.OpRename && fail {
			fail = false
			return errors.New("injected rename failure")
		}
		return nil
	}}
	fs, err := Open(Config{Nodes: 3, Replication: 2, Seed: 1, Dir: dir, Files: files, Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("chunks/a", []byte("first try")); err == nil {
		t.Fatal("Write swallowed a rename failure")
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("after a failed write the directory holds %v (%v)", entries, err)
	}
	if _, err := fs.Size("chunks/a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("a failed write was published: %v", err)
	}
	if fs.NodeUsed(0)+fs.NodeUsed(1)+fs.NodeUsed(2) != 0 || fs.Metrics().Writes.Load() != 0 {
		t.Fatal("a failed write was accounted")
	}
	if err := fs.Write("chunks/a", []byte("second try")); err != nil {
		t.Fatalf("retry under the same name: %v", err)
	}
	if got, err := fs.Read("chunks/a"); err != nil || string(got) != "second try" {
		t.Fatalf("after the retry: %q, %v", got, err)
	}
}

// TestSyncCoversFilesAndDirectory: Write does not fsync; Sync does, for every
// file written since the last one, then the directory that names them — and
// owes it all again after a failure. Nothing is owed twice, a deleted file
// is skipped, a delete owes nothing, and in memory it is a no-op.
func TestSyncCoversFilesAndDirectory(t *testing.T) {
	dir := t.TempDir()
	var ops []string
	var fail string
	files := &durable.Files{Hook: func(op durable.Op, path string) error {
		if op != durable.OpSync {
			return nil
		}
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
	want := []string{"sync chunks%2Fa", "sync chunks%2Fb", "sync ."}
	if got := syncOps(); !slices.Equal(got, want) {
		t.Fatalf("Sync did %v, want %v", got, want)
	}
	if got := syncOps(); len(got) != 0 {
		t.Fatalf("a second Sync with nothing written did %v", got)
	}

	// A failure leaves everything owed; the file deleted meanwhile has
	// nothing left to sync and is passed over.
	fs.Write("chunks/c", []byte("gamma"))
	fs.Write("chunks/d", []byte("delta"))
	fs.Delete("chunks/c")
	fail, ops = ".", nil
	if err := fs.Sync(); err == nil {
		t.Fatal("Sync swallowed an fsync failure")
	}
	want = []string{"sync chunks%2Fc", "sync chunks%2Fd", "sync ."}
	if got := syncOps(); !slices.Equal(got, want) {
		t.Fatalf("Sync after a failed one did %v, want %v", got, want)
	}
	fs.Delete("chunks/d")
	if got := syncOps(); len(got) != 0 {
		t.Fatalf("Sync after a delete did %v: an unlink that does not survive a crash leaves an orphan, not a fault", got)
	}

	mem := New(Config{Nodes: 1, Files: files})
	mem.Write("x", []byte("y"))
	ops = nil
	if err := mem.Sync(); err != nil || len(ops) != 0 {
		t.Fatalf("in-memory Sync: %v, ops %v", err, ops)
	}
}

// TestCrashDiscardUnsynced: a simulated host crash under the file system
// keeps what a completed Sync covered and cuts every file written since to
// zero bytes, name intact.
func TestCrashDiscardUnsynced(t *testing.T) {
	dir := t.TempDir()
	files := &durable.Files{}
	fs, err := Open(Config{Nodes: 3, Replication: 2, Seed: 1, Dir: dir, Files: files, Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	fs.Write("synced", []byte("on stable storage"))
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.Write("cached", []byte("in the page cache"))
	fs.Write("cached-and-deleted", []byte("gone either way"))
	fs.Delete("cached-and-deleted")
	if err := files.Crash(0, func() {}); err != nil {
		t.Fatal(err)
	}
	fs2 := newDiskFS(t, dir)
	if got, err := fs2.Read("synced"); err != nil || string(got) != "on stable storage" {
		t.Fatalf("a synced file after the crash: %q, %v", got, err)
	}
	if n, err := fs2.Size("cached"); err != nil || n != 0 {
		t.Fatalf("an un-synced file after the crash: %d bytes, %v; want its name and no bytes", n, err)
	}
	if n := len(fs2.List()); n != 2 {
		t.Fatalf("%d files after the crash, want 2", n)
	}
}
