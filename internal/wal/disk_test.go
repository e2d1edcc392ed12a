package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"waterwheel/internal/durable"
	"waterwheel/internal/telemetry"
)

func TestDiskPartitionPersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p0.wal")
	p, err := OpenPartition(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if off, err := p.Append([]byte(fmt.Sprintf("r%d", i))); err != nil || off != int64(i) {
			t.Fatalf("offset %d, err %v", off, err)
		}
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := p.CloseFile(); err != nil {
		t.Fatal(err)
	}

	p2, err := OpenPartition(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Next() != 50 || p2.Base() != 0 {
		t.Fatalf("reopened next=%d base=%d", p2.Next(), p2.Base())
	}
	recs, err := p2.Read(10, 5)
	if err != nil || len(recs) != 5 || string(recs[0].Data) != "r10" {
		t.Fatalf("reopened read: %v, %v", recs, err)
	}
	// Appends continue from the persisted head.
	if off, err := p2.Append([]byte("new")); err != nil || off != 50 {
		t.Fatalf("continued offset %d, err %v", off, err)
	}
}

func TestDiskTruncateSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.wal")
	p := openSmall(t, path, Config{}, 80) // 17 bytes a record: 5 to a segment
	for i := 0; i < 30; i++ {
		p.Append([]byte{byte(i)})
	}
	p.Truncate(12)
	if p.Base() != 12 {
		t.Fatalf("live horizon %d, want the exact 12", p.Base())
	}
	p.CloseFile()

	// The persisted horizon is segment-granular: the base of the segment
	// holding offset 12, never above it.
	p2, err := OpenPartition(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Base() != 10 || p2.Len() != 20 || p2.Next() != 30 {
		t.Fatalf("base=%d len=%d next=%d, want 10/20/30", p2.Base(), p2.Len(), p2.Next())
	}
	if _, err := p2.Read(5, 5); err == nil {
		t.Error("read below persisted horizon succeeded")
	}
	recs, _ := p2.Read(12, 3)
	if len(recs) != 3 || recs[0].Data[0] != 12 {
		t.Fatalf("recs = %v", recs)
	}
}

func TestDiskTruncateReclaims(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.wal")
	p := openSmall(t, path, Config{}, 1100) // 116 bytes a record: 10 to a segment
	for i := 0; i < 100; i++ {
		p.Append(make([]byte, 100))
	}
	before := dirSize(t, path)
	p.Truncate(90)
	if after := dirSize(t, path); after >= before/5 {
		t.Fatalf("truncate did not shrink the log: %d -> %d bytes", before, after)
	}
	if got := segBases(t, path); !slices.Equal(got, []int64{90, 100}) {
		t.Fatalf("segments after Truncate(90): %v, want [90 100]", got)
	}
	if got := p.DiskBytes(); got != dirSize(t, path) {
		t.Fatalf("DiskBytes %d, the directory holds %d", got, dirSize(t, path))
	}
	// Data still correct, and appends still work.
	recs, err := p.Read(90, 100)
	if err != nil || len(recs) != 10 {
		t.Fatalf("post-truncate read: %d recs, %v", len(recs), err)
	}
	if off, err := p.Append([]byte("x")); err != nil || off != 100 {
		t.Fatalf("post-truncate append offset %d, err %v", off, err)
	}
	p.CloseFile()
	p2, err := OpenPartition(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Base() != 90 || p2.Next() != 101 {
		t.Fatalf("reopened after truncate: base=%d next=%d", p2.Base(), p2.Next())
	}
}

func TestDiskTornRecordDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.wal")
	p, _ := OpenPartition(path, Config{})
	p.Append([]byte("good-one"))
	p.Append([]byte("good-two"))
	p.Sync()
	p.CloseFile()
	// Simulate a crash mid-append: truncate the file inside the last record.
	seg := lastSegment(t, path)
	st, _ := os.Stat(seg)
	os.Truncate(seg, st.Size()-3)

	p2, err := OpenPartition(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Next() != 1 {
		t.Fatalf("torn segment loaded %d records, want 1", p2.Next())
	}
	recs, _ := p2.Read(0, 10)
	if len(recs) != 1 || string(recs[0].Data) != "good-one" {
		t.Fatalf("recs = %v", recs)
	}
}

func TestDiskBadMagicRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.wal")
	os.Mkdir(path, 0o755)
	os.WriteFile(filepath.Join(path, fmt.Sprintf("%020d.seg", 0)), []byte("NOTAWALFILE"), 0o644)
	if _, err := OpenPartition(path, Config{}); !errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("open over a bad magic: %v, want ErrCorruptSegment", err)
	}
}

// TestDiskLegacyFileRefused: a single-file log of the old layout sits where
// the segment directory belongs; it is refused by name, not misread.
func TestDiskLegacyFileRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.wal")
	os.WriteFile(path, walMagic[:], 0o644)
	if _, err := OpenPartition(path, Config{}); !errors.Is(err, ErrLegacyLayout) {
		t.Fatalf("open over a single-file log: %v, want ErrLegacyLayout", err)
	}
}

// openLogDir opens a disk-backed log with the default (ack-on-write)
// durability config, every retained record resident.
func openLogDir(dir string, n int) (*Log, error) {
	return OpenLogDirConfig(dir, n, Config{}, func(int) int64 { return 0 })
}

func TestOpenLogDir(t *testing.T) {
	dir := t.TempDir()
	l, err := openLogDir(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	l.Partition(1).Append([]byte("p1"))
	l.Partition(2).Append([]byte("p2"))
	for i := 0; i < 3; i++ {
		l.Partition(i).Sync()
		l.Partition(i).CloseFile()
	}
	l2, err := openLogDir(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Partition(0).Len() != 0 || l2.Partition(1).Len() != 1 || l2.Partition(2).Len() != 1 {
		t.Fatalf("partition lengths %d/%d/%d",
			l2.Partition(0).Len(), l2.Partition(1).Len(), l2.Partition(2).Len())
	}
}

func TestAppendAfterCloseFileSticksError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.wal")
	p, _ := OpenPartition(path, Config{})
	p.Append([]byte("a"))
	p.CloseFile()
	// Stop-the-line: a record the segment cannot hold must not be acked or
	// retained, or a restart would silently lose it.
	if _, err := p.Append([]byte("b")); err == nil {
		t.Fatal("append after CloseFile succeeded")
	}
	if p.Err() == nil {
		t.Fatal("expected sticky error after CloseFile")
	}
	if p.Len() != 1 {
		t.Fatalf("failed append retained in memory: len=%d", p.Len())
	}
}

func TestAppendDiskFailureStopsTheLine(t *testing.T) {
	// Regression: a disk-append failure used to be swallowed — the record
	// stayed queryable in memory, its offset was acked, and flushes later
	// committed past it, so a restart silently lost an acked tuple. Inject
	// a failing file by swapping the handle for a read-only one.
	path := filepath.Join(t.TempDir(), "p.wal")
	p, err := OpenPartition(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Append([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	p.file.Close()
	ro, err := os.Open(lastSegment(t, path)) // O_RDONLY: writes fail with EBADF
	if err != nil {
		p.mu.Unlock()
		t.Fatal(err)
	}
	p.file = ro
	p.mu.Unlock()

	if _, err := p.Append([]byte("lost?")); err == nil {
		t.Fatal("append with failing file reported success")
	}
	if p.Err() == nil {
		t.Fatal("disk failure not sticky")
	}
	if p.Len() != 1 {
		t.Fatalf("failed record retained in memory: len=%d", p.Len())
	}
	if p.Next() != 1 {
		t.Fatalf("failed record consumed an offset: next=%d", p.Next())
	}
	// The line stays stopped.
	if _, err := p.Append([]byte("again")); err == nil {
		t.Fatal("append after sticky error succeeded")
	}
}

func TestDiskTornTailTruncatedOnOpen(t *testing.T) {
	// Regression: a torn append followed by further appends used to
	// corrupt the partition permanently — the torn record's bytes stayed
	// in the file, the next incarnation appended fresh frames after them,
	// and the restart after THAT misparsed the interleaving as an offset
	// gap and refused to open. Truncating the tail on open fixes it.
	path := filepath.Join(t.TempDir(), "p.wal")
	p, _ := OpenPartition(path, Config{})
	p.Append([]byte("keep-one"))
	p.Append([]byte("keep-two"))
	p.Append([]byte("torn-payload"))
	p.Sync()
	p.CloseFile()
	seg := lastSegment(t, path)
	st, _ := os.Stat(seg)
	os.Truncate(seg, st.Size()-5) // crash mid-append: payload short

	p2, err := OpenPartition(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Next() != 2 {
		t.Fatalf("after torn open: next=%d, want 2", p2.Next())
	}
	if st2, _ := os.Stat(seg); st2.Size() >= st.Size()-5 {
		t.Fatalf("torn tail not cut: %d bytes on disk", st2.Size())
	}
	// Appends after the torn open land where the torn record was.
	if off, err := p2.Append([]byte("fresh-a")); err != nil || off != 2 {
		t.Fatalf("append after torn open: off=%d err=%v", off, err)
	}
	p2.Append([]byte("fresh-b"))
	p2.Sync()
	p2.CloseFile()

	p3, err := OpenPartition(path, Config{})
	if err != nil {
		t.Fatalf("reopen after post-torn appends: %v", err)
	}
	if p3.Next() != 4 {
		t.Fatalf("final next=%d, want 4", p3.Next())
	}
	recs, _ := p3.Read(0, 10)
	want := []string{"keep-one", "keep-two", "fresh-a", "fresh-b"}
	for i, w := range want {
		if string(recs[i].Data) != w {
			t.Fatalf("record %d = %q, want %q", i, recs[i].Data, w)
		}
	}
}

// crash simulates a host crash under p, opened with files: the teardown
// closes the segment (the committer's last cohort fails first), then files
// cuts what no fsync covered and undoes the newest undo entry changes.
func crash(t *testing.T, files *durable.Files, p *Partition, undo int) {
	t.Helper()
	if err := files.Crash(undo, func() { p.CloseFile() }); err != nil {
		t.Fatal(err)
	}
}

var errInjectedFsync = errors.New("injected fsync failure")

// fsyncGate parks every fsync of the files it hooks while shut — what a
// test freezes a partition's fsync watermark with — and fails them while
// failing is set.
type fsyncGate struct {
	gate    atomic.Pointer[chan struct{}]
	failing atomic.Bool
}

func (g *fsyncGate) hook(op durable.Op) error {
	if op != durable.OpSync {
		return nil
	}
	if ch := g.gate.Load(); ch != nil {
		<-*ch
	}
	if g.failing.Load() {
		return errInjectedFsync
	}
	return nil
}

func (g *fsyncGate) files() *durable.Files {
	return &durable.Files{Hook: func(op durable.Op, _ string) error { return g.hook(op) }}
}

// shut parks every later fsync until the returned open (idempotent).
func (g *fsyncGate) shut() (open func()) {
	ch := make(chan struct{})
	g.gate.Store(&ch)
	return sync.OnceFunc(func() {
		g.gate.Store(nil)
		close(ch)
	})
}

func TestDiskCrashDiscardUnsyncedKeepsWatermarkOnly(t *testing.T) {
	// Simulated page-cache drop: no record above the fsync barrier may
	// survive, and the reopened partition must report exactly the
	// committed watermark.
	path := filepath.Join(t.TempDir(), "p.wal")
	files := &durable.Files{}
	p, err := OpenPartition(path, Config{Files: files})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		p.Append([]byte(fmt.Sprintf("durable-%d", i)))
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		p.Append([]byte(fmt.Sprintf("cached-%d", i)))
	}
	if got := p.SyncedNext(); got != 10 {
		t.Fatalf("watermark %d, want 10", got)
	}
	if p.UnsyncedBytes() == 0 {
		t.Fatal("unsynced bytes not tracked")
	}
	crash(t, files, p, 0)

	p2, err := OpenPartition(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Next() != 10 {
		t.Fatalf("reopened next=%d, want the watermark 10", p2.Next())
	}
	if p2.SyncedNext() != 10 || p2.UnsyncedBytes() != 0 {
		t.Fatalf("reopened watermark=%d unsynced=%d", p2.SyncedNext(), p2.UnsyncedBytes())
	}
	recs, _ := p2.Read(0, 100)
	if len(recs) != 10 || string(recs[9].Data) != "durable-9" {
		t.Fatalf("reopened records: %d", len(recs))
	}
}

func TestDiskGroupCommitAmortizesAndLosesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.wal")
	fsyncs := &telemetry.Counter{}
	files := &durable.Files{}
	p, err := OpenPartition(path, Config{
		Durability: DurabilityAckOnFsync,
		Metrics:    Metrics{Fsyncs: fsyncs},
		Files:      files,
	})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 16, 40
	var wg sync.WaitGroup
	var appendErr atomic.Value
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := p.Append([]byte(fmt.Sprintf("g%d-%d", g, i))); err != nil {
					appendErr.Store(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err, _ := appendErr.Load().(error); err != nil {
		t.Fatal(err)
	}
	total := int64(goroutines * perG)
	if got := p.SyncedNext(); got != total {
		t.Fatalf("watermark %d after %d acked appends", got, total)
	}
	if n := fsyncs.Value(); n >= total {
		t.Fatalf("no group-commit amortization: %d fsyncs for %d appends", n, total)
	}
	// Every acked append survives a simulated host crash.
	crash(t, files, p, 0)
	p2, err := OpenPartition(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Next() != total {
		t.Fatalf("crash lost acked records: reopened next=%d, want %d", p2.Next(), total)
	}
}

func TestDiskTruncateDoesNotBlockAppends(t *testing.T) {
	// Truncate unlinks outside the partition lock: with its unlinks parked
	// (the file hook blocks the first one), an append must complete.
	path := filepath.Join(t.TempDir(), "p.wal")
	parked := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	files := &durable.Files{Hook: func(op durable.Op, _ string) error {
		if op == durable.OpRemove {
			once.Do(func() { close(parked); <-release })
		}
		return nil
	}}
	p := openSmall(t, path, Config{Files: files}, 1024)
	for i := 0; i < 200; i++ {
		p.Append(make([]byte, 64))
	}
	done := make(chan struct{})
	go func() { p.Truncate(150); close(done) }()
	<-parked
	// The unlinks are in flight and parked; the append must not wait for them.
	if off, err := p.Append([]byte("during-truncate")); err != nil || off != 200 {
		close(release)
		t.Fatalf("append during truncate: off=%d err=%v", off, err)
	}
	close(release)
	<-done
	p.CloseFile()
	p2, err := OpenPartition(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Base() > 150 || p2.Base() < 150-14 || p2.Next() != 201 {
		t.Fatalf("after truncate: base=%d next=%d", p2.Base(), p2.Next())
	}
	recs, _ := p2.Read(200, 1)
	if len(recs) != 1 || string(recs[0].Data) != "during-truncate" {
		t.Fatalf("record appended during the truncate lost: %v", recs)
	}
}
