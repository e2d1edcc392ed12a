package meta

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"waterwheel/internal/durable"
	"waterwheel/internal/model"
)

// registry is what a restart resumes from, in a comparable form.
type registry struct {
	Schema          PartitionSchema
	Offsets, Epochs []int64
	Chunks          []ChunkInfo
}

func registryOf(s *Server) registry {
	r := registry{Schema: s.Schema()}
	for i := 0; i < r.Schema.Servers; i++ {
		r.Offsets = append(r.Offsets, s.Offset(i))
		r.Epochs = append(r.Epochs, s.Epoch(i))
	}
	r.Chunks = s.ChunksFor(model.FullRegion())
	sort.Slice(r.Chunks, func(i, j int) bool { return r.Chunks[i].ID < r.Chunks[j].ID })
	return r
}

func openJournal(t *testing.T, path string, files *durable.Files) *Server {
	t.Helper()
	s, err := Open(path, 2, JournalConfig{Files: files})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// edits runs one of every kind of registry edit, checking each succeeds.
func edits(t *testing.T, s *Server) {
	t.Helper()
	if err := s.ClaimSlots(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetSchema([]model.Key{1 << 40}); err != nil {
		t.Fatal(err)
	}
	regs, err := s.RegisterFlushOwned(0, s.Epoch(0), []ChunkInfo{
		{Path: "a", Region: region(0, 9, 0, 9), Count: 3, Size: 300, HeaderLen: 40, IndexLen: 30, Agg: &model.ChunkAgg{Field: 8, AggPartial: model.AggPartial{Count: 3, Values: 3, Sum: 6, Min: 1, Max: 3}}},
		{Path: "b", Region: region(10, 19, 5, 20), Count: 2, Size: 200, Server: 0},
	}, 77)
	if err != nil || s.Sync() != nil {
		t.Fatal(err)
	}
	if !s.SetTier(regs[1].ID, TierWarm) {
		t.Fatal("SetTier refused")
	}
	c := s.RegisterChunks([]ChunkInfo{{Path: "c", Region: region(20, 29, 0, 9), Server: 1}})
	if c == nil {
		t.Fatal("RegisterChunks refused")
	}
	if _, _, ok := s.ReplaceChunks([]ChunkInfo{{Path: "ab", Region: region(0, 19, 0, 20), Downsampled: true, Tier: TierCold}}, []model.ChunkID{regs[0].ID, regs[1].ID}); !ok {
		t.Fatal("ReplaceChunks refused")
	}
	if !s.DropChunk(c[0].ID) {
		t.Fatal("DropChunk refused")
	}
	_, id, err := s.AddServer(1, 1<<50)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.TransferOwnership(id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RemoveServer(0); err != nil {
		t.Fatal(err)
	}
}

// TestJournalReplaysEveryEdit: every edit is durable when it returns, and a
// reopen replays the journal into the same registry; so does Restore of the
// image Snapshot takes.
func TestJournalReplaysEveryEdit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.wal")
	s := openJournal(t, path, nil)
	edits(t, s)
	want := registryOf(s)
	s.Close()

	r := openJournal(t, path, nil)
	defer r.Close()
	if got := registryOf(r); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed registry:\n got %+v\nwant %+v", got, want)
	}
	img, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Restore(img)
	if err != nil {
		t.Fatal(err)
	}
	if got := registryOf(back); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored image:\n got %+v\nwant %+v", got, want)
	}
	// IDs keep increasing after the replay.
	if c := r.RegisterChunks([]ChunkInfo{{Path: "d", Region: region(0, 1, 0, 1)}}); c[0].ID != 5 {
		t.Fatalf("next chunk id after replay = %d, want 5", c[0].ID)
	}
}

// TestJournalCompactsByRule: once the records since the last image outnumber
// the chunks, an image opens a fresh segment and the journal is cut below
// it — however many edits went through, it holds one image and fewer records
// than chunks after it, in one or two segment files — and Compact does the
// same on demand.
func TestJournalCompactsByRule(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.wal")
	s := openJournal(t, path, nil)
	for i := 0; i < 10; i++ {
		s.RegisterChunks([]ChunkInfo{{Path: "c", Region: region(uint64(i), uint64(i), 0, 9)}})
	}
	for i := 0; i < 1000; i++ {
		if _, err := s.SetSchema([]model.Key{model.Key(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.j.Len(); n > 12 {
		t.Fatalf("the journal holds %d records for 10 chunks", n)
	}
	entries, err := os.ReadDir(path)
	if err != nil || len(entries) > 2 {
		t.Fatalf("meta.wal holds %d files (%v)", len(entries), err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := s.j.Len(); n != 1 {
		t.Fatalf("after Compact the journal holds %d records, want the image", n)
	}
	want := registryOf(s)
	s.Close()
	r := openJournal(t, path, nil)
	defer r.Close()
	if got := registryOf(r); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed registry:\n got %+v\nwant %+v", got, want)
	}
}

// TestJournalRefusalChangesNothing: an edit whose record cannot be made
// durable is reported, the journal's line breaks, and every later edit is
// refused without touching the registry.
func TestJournalRefusalChangesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.wal")
	var failing atomic.Bool
	s := openJournal(t, path, &durable.Files{Hook: func(op durable.Op, p string) error {
		if failing.Load() && op == durable.OpSync && strings.HasPrefix(p, path) {
			return errors.New("injected fsync fault")
		}
		return nil
	}})
	defer s.Close()
	c := s.RegisterChunks([]ChunkInfo{{Path: "a", Region: region(0, 9, 0, 9)}})
	failing.Store(true)
	if s.DropChunk(c[0].ID) {
		t.Fatal("a drop whose record is not durable reported success")
	}
	before := registryOf(s)
	if _, err := s.SetSchema([]model.Key{5}); err == nil {
		t.Fatal("an edit after the journal broke succeeded")
	}
	if _, err := s.RegisterFlushOwned(0, s.Epoch(0), []ChunkInfo{{Path: "b"}}, 9); err == nil {
		t.Fatal("a flush commit after the journal broke succeeded")
	}
	if s.RegisterChunks([]ChunkInfo{{Path: "b"}}) != nil {
		t.Fatal("a registration after the journal broke succeeded")
	}
	if got := registryOf(s); !reflect.DeepEqual(got, before) {
		t.Fatalf("refused edits changed the registry:\n got %+v\nwant %+v", got, before)
	}
}

// TestImageTooLargeIsTyped: a record past wal.MaxRecordBytes is a typed
// error, not a crash, and the registry keeps working.
func TestImageTooLargeIsTyped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.wal")
	s := openJournal(t, path, nil)
	defer s.Close()
	long := strings.Repeat("x", 1<<20)
	for i := 0; i < 17; i++ {
		if s.RegisterChunks([]ChunkInfo{{Path: long, Region: region(0, 9, 0, 9)}}) == nil {
			t.Fatal("registration refused")
		}
	}
	if err := s.Compact(); !errors.Is(err, ErrImageTooLarge) {
		t.Fatalf("Compact of a 17 MiB registry: %v, want ErrImageTooLarge", err)
	}
	if s.RegisterChunks([]ChunkInfo{{Path: strings.Repeat("y", 17<<20)}}) != nil {
		t.Fatal("a 17 MiB edit was taken")
	}
	if !s.DropChunk(1) || s.ChunkCount() != 16 {
		t.Fatalf("the registry stopped working: %d chunks", s.ChunkCount())
	}
}

// FuzzMetaJournal: whatever bytes a journal record or an image holds,
// decoding them gives a typed error or a registry that works — never a
// panic.
func FuzzMetaJournal(f *testing.F) {
	s := NewServer(2)
	s.RegisterFlushOwned(0, 1, []ChunkInfo{{Path: "a", Region: region(0, 9, 0, 9), Agg: &model.ChunkAgg{Field: 1}}}, 5)
	img, _ := s.Snapshot()
	f.Add(img)
	st := s.stateLocked()
	f.Add((&record{State: &st, Drops: []model.ChunkID{1}, Puts: s.ChunksFor(model.FullRegion())}).encode())
	f.Add((&record{Drops: []model.ChunkID{3, 4}}).encode())
	if gob, err := os.ReadFile("testdata/pr13_format_field.snap"); err == nil {
		f.Add(gob)
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		typed := func(err error) {
			if err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("untyped error: %v", err)
			}
		}
		r, err := Restore(rec)
		typed(err)
		srv := NewServer(2)
		if r, err := decode(rec); err == nil {
			srv.applyLocked(r)
		} else {
			typed(err)
		}
		for _, s := range []*Server{r, srv} {
			if s == nil {
				continue
			}
			sc := s.Schema()
			for _, k := range []model.Key{0, 1 << 40, model.MaxKey} {
				sc.IntervalOf(sc.ServerFor(k))
			}
			s.ChunksFor(model.FullRegion())
			s.RegisterChunks([]ChunkInfo{{Path: "z"}})
			s.TransferOwnership(0)
			if _, err := s.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
