package meta

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"waterwheel/internal/durable"
	"waterwheel/internal/model"
	"waterwheel/internal/wal"
)

// chunkAt is chunk i's metadata, the size of a real one: some 300 bytes of
// JSON.
func chunkAt(i int) ChunkInfo {
	k := uint64(i) * 1000
	return ChunkInfo{
		Path:   fmt.Sprintf("chunks%%2Fis%d-e1-c%d", i%4, i),
		Region: region(k, k+999, int64(i), int64(i)+60_000),
		Count:  4096, Size: 16 << 20, HeaderLen: 5000, IndexLen: 4000, Server: i % 4,
		Agg: &model.ChunkAgg{Field: 8, AggPartial: model.AggPartial{Count: 4096, Values: 4096, Sum: uint64(i), Min: 1, Max: 99}},
	}
}

// registerMany registers n chunks, 1 000 to an edit.
func registerMany(t testing.TB, s *Server, n int) {
	t.Helper()
	for i := 0; i < n; i += 1000 {
		batch := make([]ChunkInfo, 0, 1000)
		for j := i; j < min(i+1000, n); j++ {
			batch = append(batch, chunkAt(j))
		}
		if s.RegisterChunks(batch) == nil {
			t.Fatal("registration refused")
		}
	}
}

// TestCompactionOf100kChunks: a registry of 10⁵ chunks — past the size one
// journal record holds — compacts into parts of partChunks and reopens with
// the same chunks, state and count.
func TestCompactionOf100kChunks(t *testing.T) {
	if testing.Short() {
		t.Skip("registers 10⁵ chunks")
	}
	path := filepath.Join(t.TempDir(), "meta.wal")
	s := openJournal(t, path, nil)
	const n = 100_000
	registerMany(t, s, n)
	if _, err := s.RegisterFlushOwned(1, s.Epoch(1), nil, 4242); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact of %d chunks: %v", n, err)
	}
	if got, want := s.j.Len(), (n+partChunks-1)/partChunks; got != want {
		t.Fatalf("after Compact the journal holds %d records, want %d parts", got, want)
	}
	want := registryOf(s)
	s.Close()
	r := openJournal(t, path, nil)
	defer r.Close()
	if r.ChunkCount() != n || r.Offset(1) != 4242 {
		t.Fatalf("reopened: %d chunks, offset %d; want %d and 4242", r.ChunkCount(), r.Offset(1), n)
	}
	if got := registryOf(r); !reflect.DeepEqual(got, want) {
		t.Fatal("the reopened registry differs from the compacted one")
	}
}

// TestCompactionDoesNotStallQueries: a ChunksFor made while a compaction of
// 6·10⁴ chunks runs, with an edit queued for the write lock, waits for one
// part and the edit, not for the whole compaction. Go's RWMutex parks a new
// reader behind a waiting writer, so a compaction that holds the lock
// throughout stalls every query for its length: some 200 ms here when the
// image was one record. The bound is the median of five probes.
func TestCompactionDoesNotStallQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("registers 6·10⁴ chunks")
	}
	path := filepath.Join(t.TempDir(), "meta.wal")
	s := openJournal(t, path, nil)
	defer s.Close()
	registerMany(t, s, 60_000)
	const bound = 20 * time.Millisecond
	var probes []time.Duration
	for i := 0; i < 5; i++ {
		done := make(chan error, 1)
		go func() { done <- s.Compact() }()
		time.Sleep(5 * time.Millisecond) // the compaction is under way
		edited := make(chan bool, 1)
		go func() { edited <- len(s.DropChunksBefore(model.Timestamp(60_001+i))) == 1 }()
		time.Sleep(time.Millisecond) // the edit waits for the write lock
		start := time.Now()
		if got := s.ChunksFor(region(5000, 5000, 5, 5)); len(got) != 1 {
			t.Fatalf("the probe found %d chunks, want 1", len(got))
		}
		probes = append(probes, time.Since(start))
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if !<-edited {
			t.Fatal("the queued edit was refused")
		}
	}
	slices.Sort(probes)
	t.Logf("ChunksFor during a compaction: %v", probes)
	if probes[len(probes)/2] > bound {
		t.Fatalf("a ChunksFor during a compaction took %v in the median (%v), want at most %v", probes[len(probes)/2], probes, bound)
	}
}

// TestOversizeEditIsRefused: an edit whose record would exceed
// wal.MaxRecordBytes is refused with wal.ErrRecordTooLarge and changes
// nothing; the journal takes the next edit.
func TestOversizeEditIsRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.wal")
	s := openJournal(t, path, nil)
	c := s.RegisterChunks([]ChunkInfo{{Path: "a", Region: region(0, 9, 0, 9)}, {Path: "b", Region: region(0, 9, 0, 9)}})
	before := registryOf(s)
	long := strings.Repeat("y", 17<<20)
	if _, err := s.RegisterFlushOwned(0, s.Epoch(0), []ChunkInfo{{Path: long}}, 9); !errors.Is(err, wal.ErrRecordTooLarge) {
		t.Fatalf("a 17 MiB flush commit: %v, want wal.ErrRecordTooLarge", err)
	}
	if s.RegisterChunks([]ChunkInfo{{Path: long}}) != nil {
		t.Fatal("a 17 MiB registration was taken")
	}
	if got := registryOf(s); !reflect.DeepEqual(got, before) {
		t.Fatalf("refused edits changed the registry:\n got %+v\nwant %+v", got, before)
	}
	if len(s.DropChunksBefore(10)) != len(c) {
		t.Fatal("the journal refused the edit after an oversize one")
	}
	want := registryOf(s)
	s.Close()
	r := openJournal(t, path, nil)
	defer r.Close()
	if got := registryOf(r); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed registry:\n got %+v\nwant %+v", got, want)
	}
}

// TestCompactionFailureIsTyped: a part is cut by count, so chunks with
// synthetic megabyte paths make one larger than a journal record. Compact
// says so with a typed error and changes nothing; the journal keeps taking
// edits, and once the part fits a compaction goes through.
func TestCompactionFailureIsTyped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.wal")
	s := openJournal(t, path, nil)
	long := strings.Repeat("x", 1<<20)
	for i := 0; i < 17; i++ {
		if s.RegisterChunks([]ChunkInfo{{Path: long, Region: region(0, 9, int64(i), int64(i))}}) == nil {
			t.Fatal("registration refused")
		}
	}
	if err := s.Compact(); !errors.Is(err, wal.ErrRecordTooLarge) {
		t.Fatalf("Compact of a part of 17 MiB: %v, want wal.ErrRecordTooLarge", err)
	}
	if len(s.DropChunksBefore(2)) != 2 || s.ChunkCount() != 15 {
		t.Fatalf("the journal stopped taking edits: %d chunks", s.ChunkCount())
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact of a part of 15 MiB: %v", err)
	}
	if s.j.Len() != 1 {
		t.Fatalf("after Compact the journal holds %d records, want 1 part", s.j.Len())
	}
	want := registryOf(s)
	s.Close()
	r := openJournal(t, path, nil)
	defer r.Close()
	if got := registryOf(r); !reflect.DeepEqual(got, want) {
		t.Fatal("the reopened registry differs from the compacted one")
	}
}

// TestOlderImageFormatOpens: a journal as the previous layout wrote it — the
// registry's image, one record flagged Image in a segment of its own, after
// the edits it sums up and before later ones — replays to the same
// registry, with no reset at the image.
func TestOlderImageFormatOpens(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.wal")
	s := openJournal(t, path, nil)
	edits(t, s)
	img, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.j.StartSegment(img); err != nil {
		t.Fatal(err)
	}
	c := s.RegisterChunks([]ChunkInfo{{Path: "after", Region: region(0, 1, 30, 31)}})
	if c == nil || len(s.DropChunksBefore(30)) != 1 {
		t.Fatal("an edit after the image was refused")
	}
	if _, err := s.RegisterFlushOwned(1, s.Epoch(1), nil, 99); err != nil {
		t.Fatal(err)
	}
	want := registryOf(s)
	s.Close()
	r := openJournal(t, path, nil)
	defer r.Close()
	if got := registryOf(r); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed registry:\n got %+v\nwant %+v", got, want)
	}
}

// threeParts opens a journal through files over 700 chunks — a compaction
// of three parts — and an edit of every kind.
func threeParts(t *testing.T, path string, files *durable.Files) *Server {
	t.Helper()
	s := openJournal(t, path, files)
	edits(t, s)
	registerMany(t, s, 700)
	return s
}

// TestJournalCrashAtEveryCompactionStep: a host crash at any durable
// operation of a compaction of three parts — the first part's segment, the
// fsyncs of the parts, the unlinks below the cut and the directory's fsync —
// with none, the newest or every unsynced directory entry change undone,
// reopens to the registry before the crash. A compaction that succeeds
// returns with all of its parts durable.
func TestJournalCrashAtEveryCompactionStep(t *testing.T) {
	run := func(failFrom int64, undo int) (n int64) {
		path := filepath.Join(t.TempDir(), "meta.wal")
		var ops atomic.Int64
		var armed atomic.Bool
		files := &durable.Files{Hook: func(durable.Op, string) error {
			if armed.Load() && ops.Add(1)-1 >= failFrom && failFrom >= 0 {
				return errors.New("injected file fault")
			}
			return nil
		}}
		s := threeParts(t, path, files)
		want := registryOf(s)
		armed.Store(true)
		err := s.Compact()
		armed.Store(false)
		if failFrom < 0 && err != nil {
			t.Fatal(err)
		}
		if err == nil && s.j.SyncedNext() != s.j.Next() {
			t.Fatalf("Compact returned with the journal durable to %d of %d", s.j.SyncedNext(), s.j.Next())
		}
		if err := files.Crash(undo, s.Close); err != nil {
			t.Fatal(err)
		}
		r, err := Open(path, 2, JournalConfig{Files: files})
		if err != nil {
			t.Fatalf("reopen after a crash at operation %d, undo %s: %v", failFrom, undoName(undo), err)
		}
		defer r.Close()
		if got := registryOf(r); !reflect.DeepEqual(got, want) {
			t.Fatalf("crash at operation %d, undo %s: the reopened registry differs", failFrom, undoName(undo))
		}
		return ops.Load()
	}
	n := run(-1, 0)
	t.Logf("%d durable operations in a compaction of three parts", n)
	for k := int64(0); k <= n; k++ {
		for _, undo := range []int{0, 1, math.MaxInt} {
			run(k, undo)
		}
	}
}

func undoName(undo int) string {
	if undo == math.MaxInt {
		return "all"
	}
	return fmt.Sprint(undo)
}

// TestJournalCutBetweenParts: a crash whose last fsync covered only some
// parts of a compaction — so the journal still holds everything below the
// cut point S — reopens to the registry before the compaction, whether the
// journal ends at S, between two parts or inside one.
func TestJournalCutBetweenParts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.wal")
	// The journal is not cut below S: its unlinks fail.
	s := threeParts(t, path, &durable.Files{Hook: func(op durable.Op, _ string) error {
		if op == durable.OpRemove {
			return errors.New("injected unlink fault")
		}
		return nil
	}})
	want := registryOf(s)
	cut := s.j.Next()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	seg := filepath.Join(path, fmt.Sprintf("%020d.seg", cut))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// The frame ends in the segment holding the parts: [8B offset][4B
	// length][payload] after the 8-byte magic.
	var ends []int
	for at := 8; at < len(data); {
		at += 12 + int(binary.BigEndian.Uint32(data[at+8:]))
		ends = append(ends, at)
	}
	if len(ends) != 3 {
		t.Fatalf("the compaction wrote %d parts, want 3", len(ends))
	}
	for _, end := range []int{8, ends[0], ends[0] + 100, ends[1]} {
		if err := os.WriteFile(seg, data[:end], 0o644); err != nil {
			t.Fatal(err)
		}
		r := openJournal(t, path, nil)
		if got := registryOf(r); !reflect.DeepEqual(got, want) {
			t.Fatalf("the journal cut at byte %d of the parts' segment replays to another registry", end)
		}
		r.Close()
	}
}

// TestJournalCompactsUnderEdits: edits of every kind, made while ten
// compactions of twenty parts run back to back, land between the parts —
// a part puts the chunks registered when the part is written, never the
// ones a drop since the cut point removed — and the journal reopens to the
// registry the edits left, cut below the last compaction's first part or
// not cut at all.
func TestJournalCompactsUnderEdits(t *testing.T) {
	for _, keep := range []bool{false, true} {
		t.Run(fmt.Sprintf("unlinks-fail=%v", keep), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "meta.wal")
			s := openJournal(t, path, &durable.Files{Hook: func(op durable.Op, _ string) error {
				if keep && op == durable.OpRemove {
					return errors.New("injected unlink fault")
				}
				return nil
			}})
			edits(t, s)
			registerMany(t, s, 20*partChunks) // IDs 5 on
			var stop atomic.Bool
			done := make(chan error)
			go func() {
				var err error
				for n := 0; n < 10 && err == nil && !stop.Load(); n++ {
					err = s.Compact()
				}
				done <- err
			}()
			for i := 0; i < 200; i++ {
				switch i % 4 {
				case 0:
					s.DropChunksBefore(model.Timestamp(60_000 + 25*i))
				case 1:
					s.RegisterFlushOwned(1, s.Epoch(1), nil, int64(i))
				case 2:
					s.RegisterFlushOwned(1, s.Epoch(1), []ChunkInfo{chunkAt(10_000 + i)}, int64(i))
				case 3:
					s.RegisterChunks([]ChunkInfo{chunkAt(20_000 + i)})
				}
			}
			if _, err := s.SetSchema([]model.Key{1 << 45}); err != nil {
				t.Fatal(err)
			}
			stop.Store(true)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			want := registryOf(s)
			s.Close()
			r := openJournal(t, path, nil)
			defer r.Close()
			if got := registryOf(r); !reflect.DeepEqual(got, want) {
				t.Fatal("the reopened registry differs from the one the edits left")
			}
		})
	}
}
