package meta

import (
	"bytes"
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
	"waterwheel/internal/wal"
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

func openJournal(t testing.TB, path string, files *durable.Files) *Server {
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
		{Path: "b", Region: region(10, 19, 5, 19), Count: 2, Size: 200, Server: 0},
	}, 77)
	if err != nil || s.Sync() != nil {
		t.Fatal(err)
	}
	c := s.RegisterChunks([]ChunkInfo{{Path: "c", Region: region(20, 29, 0, 9), Server: 1}})
	if c == nil || s.RegisterChunks([]ChunkInfo{{Path: "ab", Region: region(0, 19, 0, 20)}}) == nil {
		t.Fatal("RegisterChunks refused")
	}
	if got := s.DropChunksBefore(20); len(got) != 3 || got[0].ID != regs[0].ID || got[1].ID != regs[1].ID || got[2].ID != c[0].ID {
		t.Fatalf("DropChunksBefore dropped %+v, want a, b and c", got)
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

// TestJournalReplaysRetiredChunkFields: a record written by an older build
// carries a put and a drop together, and its chunks carry "Tier" and
// "Downsampled" keys this build no longer has. It replays: the drop goes,
// the put is registered with every field this build knows, and the unknown
// keys are ignored.
func TestJournalReplaysRetiredChunkFields(t *testing.T) {
	body := `{"Drops":[1],"Puts":[{"ID":2,"Path":"chunks/compact-is0-e1-d0-1",` +
		`"Region":{"Keys":{"Lo":0,"Hi":9},"Times":{"Lo":0,"Hi":99}},"Count":4,"Size":400,` +
		`"HeaderLen":64,"IndexLen":48,"Server":0,"Agg":null,"Tier":2,"Downsampled":true}]}`
	r, err := decode(append(append([]byte(nil), magic...), body...))
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(1)
	if c := s.RegisterChunks([]ChunkInfo{{Path: "a", Region: region(0, 9, 0, 9)}}); c == nil || c[0].ID != 1 {
		t.Fatalf("registered %+v", c)
	}
	s.applyLocked(r)
	want := ChunkInfo{ID: 2, Path: "chunks/compact-is0-e1-d0-1", Region: region(0, 9, 0, 99), Count: 4, Size: 400, HeaderLen: 64, IndexLen: 48}
	if got := s.ChunksFor(model.FullRegion()); len(got) != 1 || !reflect.DeepEqual(got[0], want) {
		t.Fatalf("replayed registry %+v, want [%+v]", got, want)
	}
}

// TestJournalCompactsByRule: once the edits since the last compaction
// outnumber the chunks, the registry is re-registered from a fresh segment
// and the journal is cut below it — however many edits went through, it
// holds one part and fewer records than chunks after it, in one or two
// segment files — and Compact does the same on demand.
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
		t.Fatalf("after Compact the journal holds %d records, want the one part", n)
	}
	want := registryOf(s)
	s.Close()
	r := openJournal(t, path, nil)
	defer r.Close()
	if got := registryOf(r); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed registry:\n got %+v\nwant %+v", got, want)
	}
}

// TestDropChunksBeforeSplitsIntoParts: a drop of more chunks than a part
// holds goes on the journal as records of at most partChunks drops each,
// and the journal replays to the registry the drop left.
func TestDropChunksBeforeSplitsIntoParts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.wal")
	s := openJournal(t, path, nil)
	registerMany(t, s, 3*partChunks) // chunkAt(i) ends at 60 000 + i
	next := s.j.Next()
	if got := s.DropChunksBefore(60_000 + 2*partChunks + 5); len(got) != 2*partChunks+5 {
		t.Fatalf("dropped %d chunks, want %d", len(got), 2*partChunks+5)
	}
	recs, err := s.j.Read(next, 10)
	if err != nil || len(recs) != 3 {
		t.Fatalf("the drop appended %d records (%v), want 3", len(recs), err)
	}
	for _, rec := range recs {
		r, err := decode(rec.Data)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Drops) > partChunks || r.State != nil || r.Puts != nil {
			t.Fatalf("a drop record holds %d drops, want at most %d and nothing else", len(r.Drops), partChunks)
		}
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
	if s.RegisterChunks([]ChunkInfo{{Path: "a", Region: region(0, 9, 0, 9)}}) == nil {
		t.Fatal("RegisterChunks refused")
	}
	failing.Store(true)
	if s.DropChunksBefore(10) != nil {
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

// FuzzMetaJournal: whatever bytes a journal holds — records back to back,
// each behind the magic — or an image holds, replaying or restoring them
// gives a typed error or a registry that works — never a panic. The same
// bytes as the journal's segment file open the same way.
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
	// A compacted journal: its parts, then an edit.
	jpath := filepath.Join(f.TempDir(), "meta.wal")
	j := openJournal(f, jpath, nil)
	registerMany(f, j, 2*partChunks+10)
	if err := j.Compact(); err != nil {
		f.Fatal(err)
	}
	j.DropChunksBefore(60_007)
	recs, err := j.j.Read(j.j.Base(), 10)
	if err != nil || len(recs) != 4 {
		f.Fatalf("the compacted journal holds %d records (%v), want 3 parts and an edit", len(recs), err)
	}
	var journal []byte
	for _, rec := range recs {
		journal = append(journal, rec.Data...)
	}
	j.Close()
	f.Add(journal)
	// The journal's segment file as the log wrote it, and single bits of it
	// and of its records flipped: in the first part's record, a part in the
	// middle and the last edit.
	segs, err := filepath.Glob(filepath.Join(jpath, "*.seg"))
	if err != nil || len(segs) != 1 {
		f.Fatalf("the compacted journal lies in %v (%v), want one segment", segs, err)
	}
	seg, err := os.ReadFile(segs[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	for _, at := range []int{20, len(seg) / 2, len(seg) - 3} {
		for _, b := range [][]byte{seg, journal} {
			flipped := bytes.Clone(b)
			flipped[at%len(b)] ^= 0x10
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		typed := func(err error) {
			if err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) && !errors.Is(err, wal.ErrUnsupportedVersion) {
				t.Fatalf("untyped error: %v", err)
			}
		}
		r, err := Restore(data)
		typed(err)
		// The same bytes as the journal's one segment file.
		dir := filepath.Join(t.TempDir(), "meta.wal")
		os.Mkdir(dir, 0o755)
		if err := os.WriteFile(filepath.Join(dir, "00000000000000000000.seg"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		opened, err := Open(dir, 2, JournalConfig{})
		typed(err)
		if opened != nil {
			defer opened.Close()
		}
		srv := NewServer(2)
		for len(data) > 0 {
			n := bytes.Index(data[1:], magic) + 1
			if n == 0 {
				n = len(data)
			}
			if r, err := decode(data[:n]); err == nil {
				srv.applyLocked(r)
			} else {
				typed(err)
			}
			data = data[n:]
		}
		for _, s := range []*Server{r, srv, opened} {
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

// TestJournalFrameFlipIsCorrupt: a flipped byte inside a journal record
// that has records after it fails the record's CRC, and Open refuses the
// journal with ErrCorrupt instead of replaying a changed edit.
func TestJournalFrameFlipIsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.wal")
	s := openJournal(t, path, nil)
	registerMany(t, s, 10)
	registerMany(t, s, 10)
	s.Close()
	segs, err := filepath.Glob(filepath.Join(path, "*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("the journal lies in %v (%v), want one segment", segs, err)
	}
	seg, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	seg[8+16+len(magic)+2] ^= 0x01 // a byte of the first record's JSON
	if err := os.WriteFile(segs[0], seg, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(path, 2, JournalConfig{}); !errors.Is(err, ErrCorrupt) || !errors.Is(err, wal.ErrCorruptSegment) {
		if s != nil {
			s.Close()
		}
		t.Fatalf("open over a flipped record: %v, want ErrCorrupt for a corrupt segment", err)
	}
}
