package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"waterwheel/internal/durable"
)

// openSmall opens a disk-backed partition that rolls at segBytes instead of
// SegmentBytes, so a test crosses many segment boundaries with few records.
func openSmall(t testing.TB, path string, cfg Config, segBytes int64) *Partition {
	t.Helper()
	p, err := OpenPartition(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.segBytes = segBytes
	return p
}

// segBases lists the bases of the segment files in a partition directory.
func segBases(t testing.TB, path string) []int64 {
	t.Helper()
	bases, err := listSegments(path)
	if err != nil {
		t.Fatal(err)
	}
	return bases
}

func segFile(path string, base int64) string {
	return filepath.Join(path, fmt.Sprintf("%020d%s", base, segSuffix))
}

// lastSegment returns the path of the last (active) segment file.
func lastSegment(t testing.TB, path string) string {
	t.Helper()
	bases := segBases(t, path)
	return segFile(path, bases[len(bases)-1])
}

// dirSize sums the sizes of the files in a partition directory.
func dirSize(t testing.TB, path string) int64 {
	t.Helper()
	entries, err := os.ReadDir(path)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		n += info.Size()
	}
	return n
}

// goldenRecords is the content of testdata/golden.wal, in offset order.
var goldenRecords = [][]byte{
	[]byte("alpha"), {}, []byte("gamma-gamma"),
	bytes.Repeat([]byte{0xAB}, 300),
	[]byte("epsilon"), []byte("zeta"),
}

// TestGoldenSegment pins the one on-disk format of the log: a file named by
// the offset of its first record, the magic WWWAL002, then [8B offset]
// [4B length][4B CRC32C][payload] frames. A byte-for-byte match with the
// committed fixture proves the segment has not moved, and opening the
// committed bytes — not a fresh write — proves logs written by earlier builds
// of this layout still load. A segment of the layout before the CRC
// (testdata/golden_v1.wal, written at commit e1795fa) is refused with
// ErrUnsupportedVersion.
func TestGoldenSegment(t *testing.T) {
	const name = "00000000000000000000.seg"
	golden, err := os.ReadFile(filepath.Join("testdata", "golden.wal", name))
	if err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(t.TempDir(), "fresh.wal")
	p, err := OpenPartition(fresh, Config{})
	if err != nil {
		t.Fatal(err)
	}
	p.AppendBatch(goldenRecords[:3])
	p.Append(goldenRecords[3])
	p.AppendBatch(goldenRecords[4:])
	p.CloseFile()
	if got := segBases(t, fresh); !slices.Equal(got, []int64{0}) {
		t.Fatalf("fresh log holds segments %v, want [0]", got)
	}
	written, err := os.ReadFile(filepath.Join(fresh, name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, golden) {
		t.Fatalf("the log wrote %d bytes that differ from the %d-byte golden segment: the on-disk format changed", len(written), len(golden))
	}

	p2, err := OpenPartition(goldenCopy(t, golden), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.CloseFile()
	if p2.Base() != 0 || p2.Next() != int64(len(goldenRecords)) {
		t.Fatalf("golden segment loaded as [%d, %d), want [0, %d)", p2.Base(), p2.Next(), len(goldenRecords))
	}
	readThrough(t, p2, 0, p2.Next(), func(off int64) []byte { return goldenRecords[off] })

	v1, err := os.ReadFile(filepath.Join("testdata", "golden_v1.wal", name))
	if err != nil {
		t.Fatal(err)
	}
	if p3, err := OpenPartition(goldenCopy(t, v1), Config{}); !errors.Is(err, ErrUnsupportedVersion) {
		if p3 != nil {
			p3.CloseFile()
		}
		t.Fatalf("open over a WWWAL001 segment: %v, want ErrUnsupportedVersion", err)
	}
}

// goldenCopy writes seg as the first segment of a fresh partition directory
// and returns the directory.
func goldenCopy(t *testing.T, seg []byte) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "golden.wal")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segFile(dir, 0), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestGoldenSegmentBitFlips flips every bit of the golden segment in turn.
// Each flipped copy either fails to open with a typed error or opens to a
// prefix of the written records: the CRC leaves no flip that reads back as a
// changed record.
func TestGoldenSegmentBitFlips(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden.wal", "00000000000000000000.seg"))
	if err != nil {
		t.Fatal(err)
	}
	dir := goldenCopy(t, golden)
	cuts := 0
	for bit := 0; bit < 8*len(golden); bit++ {
		seg := bytes.Clone(golden)
		seg[bit/8] ^= 1 << (bit % 8)
		if err := os.WriteFile(segFile(dir, 0), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := OpenPartition(dir, Config{})
		if err != nil {
			if !errors.Is(err, ErrCorruptSegment) && !errors.Is(err, ErrUnsupportedVersion) {
				t.Fatalf("bit %d: untyped open error: %v", bit, err)
			}
			continue
		}
		recs, err := p.Read(0, len(goldenRecords)+1)
		p.CloseFile()
		if err != nil || p.Base() != 0 || len(recs) > len(goldenRecords) {
			t.Fatalf("bit %d: opened as [%d, %d), read %d records: %v", bit, p.Base(), p.Next(), len(recs), err)
		}
		for i, r := range recs {
			if !bytes.Equal(r.Data, goldenRecords[i]) {
				t.Fatalf("bit %d: record %d reads %q, %q was written", bit, i, r.Data, goldenRecords[i])
			}
		}
		if len(recs) < len(goldenRecords) {
			cuts++
		}
	}
	if cuts == 0 {
		t.Fatal("no flip was cut as a torn tail: the last frame's flips never reached the cut")
	}
}

// TestFrameFlipInTheMiddleIsCorrupt: a flipped payload or offset byte in a
// frame with frames after it is ErrCorruptSegment — not data, and not a
// torn tail to cut — while the same flip in the last frame of the last
// segment is a torn tail: the frame is cut and the log opens without it.
func TestFrameFlipInTheMiddleIsCorrupt(t *testing.T) {
	build := func(t *testing.T) (string, string) {
		path := filepath.Join(t.TempDir(), "p.wal")
		p, err := OpenPartition(path, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.AppendBatch([][]byte{[]byte("abcdefgh"), []byte("ijklmnop")}); err != nil {
			t.Fatal(err)
		}
		p.Sync()
		p.CloseFile()
		return path, lastSegment(t, path)
	}
	const frame = recordHeaderLen + 8
	for _, c := range []struct {
		what string
		at   int // byte of the frame to flip
	}{{"payload", recordHeaderLen + 5}, {"offset", 7}} {
		t.Run(c.what+" in the first frame", func(t *testing.T) {
			path, seg := build(t)
			flipByte(t, seg, walMagicLen+c.at)
			if p, err := OpenPartition(path, Config{}); !errors.Is(err, ErrCorruptSegment) {
				if p != nil {
					recs, _ := p.Read(0, 10)
					p.CloseFile()
					t.Fatalf("open over a flipped %s byte: %v, read %v; want ErrCorruptSegment", c.what, err, recs)
				}
				t.Fatalf("open over a flipped %s byte: %v, want ErrCorruptSegment", c.what, err)
			}
		})
		t.Run(c.what+" in the last frame", func(t *testing.T) {
			path, seg := build(t)
			flipByte(t, seg, walMagicLen+frame+c.at)
			p, err := OpenPartition(path, Config{})
			if err != nil {
				t.Fatalf("open over a flipped %s byte in the last frame: %v, want the frame cut", c.what, err)
			}
			defer p.CloseFile()
			recs, err := p.Read(0, 10)
			if err != nil || len(recs) != 1 || string(recs[0].Data) != "abcdefgh" {
				t.Fatalf("after the cut: %v, %v; want the first record alone", recs, err)
			}
			if st, _ := os.Stat(seg); st.Size() != walMagicLen+frame {
				t.Fatalf("the torn frame was not cut: %d bytes, want %d", st.Size(), walMagicLen+frame)
			}
		})
	}
}

// flipByte inverts one byte of the file at path.
func flipByte(t *testing.T, path string, at int) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[at] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentRollUnderConcurrentUse: appenders, a SyncTo loop (the flusher's
// barrier) and a tailing reader run while the log rolls every few dozen
// records; the reader sees every offset once, in order, every batch is acked
// only below the fsync watermark, and a reopen finds the same run.
func TestSegmentRollUnderConcurrentUse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.wal")
	p := openSmall(t, path, Config{Durability: DurabilityAckOnFsync}, 2048)
	const writers, perWriter = 4, 300
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				datas := [][]byte{[]byte(fmt.Sprintf("w%d-%04d-a", g, i)), []byte(fmt.Sprintf("w%d-%04d-b", g, i))}
				first, err := p.AppendBatch(datas)
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				if synced := p.SyncedNext(); synced < first+2 {
					t.Errorf("batch at %d acked with the fsync watermark at %d", first, synced)
					return
				}
			}
		}(g)
	}
	stop := make(chan struct{})
	var syncer sync.WaitGroup
	syncer.Add(1)
	go func() {
		defer syncer.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := p.SyncTo(p.Next()); err != nil {
				t.Errorf("SyncTo: %v", err)
				return
			}
		}
	}()
	const total = writers * perWriter * 2
	seen := make(map[string]bool, total)
	for next := int64(0); next < total; {
		recs, err := p.ReadBlocking(next, make([]Record, 64), nil)
		if err != nil {
			t.Fatalf("read at %d: %v", next, err)
		}
		for _, r := range recs {
			if r.Offset != next {
				t.Fatalf("read offset %d, want %d", r.Offset, next)
			}
			if seen[string(r.Data)] {
				t.Fatalf("record %q delivered twice", r.Data)
			}
			seen[string(r.Data)] = true
			next++
		}
	}
	wg.Wait()
	close(stop)
	syncer.Wait()
	if t.Failed() {
		return
	}
	if n := len(segBases(t, path)); n < 10 {
		t.Fatalf("%d records of ~22 bytes left %d segments at a 2 KiB roll", total, n)
	}
	p.CloseFile()
	p2, err := OpenPartition(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.CloseFile()
	if p2.Base() != 0 || p2.Next() != total || p2.Len() != total {
		t.Fatalf("reopened: base=%d next=%d len=%d, want 0/%d/%d", p2.Base(), p2.Next(), p2.Len(), total, total)
	}
}

// TestAckWaitsForRolledSegment: under ack-on-fsync a record whose segment
// was closed by a roll, but not yet fsynced, is not acked — the cohort that
// acks it syncs the closed segment, the new one and the directory first.
func TestAckWaitsForRolledSegment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.wal")
	var mu sync.Mutex
	var synced []string
	var fsyncs fsyncGate
	files := &durable.Files{Hook: func(op durable.Op, path string) error {
		if op == durable.OpSync {
			mu.Lock()
			synced = append(synced, filepath.Base(path))
			mu.Unlock()
		}
		return fsyncs.hook(op)
	}}
	p := openSmall(t, path, Config{Durability: DurabilityAckOnFsync, Files: files}, 256)
	if _, err := p.Append([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	synced = nil
	mu.Unlock()

	release := fsyncs.shut()
	defer release()
	end, err := p.StartAppend([][]byte{make([]byte, 300)}) // fills segment 0: it rolls
	if err != nil {
		t.Fatal(err)
	}
	if got := segBases(t, path); !slices.Equal(got, []int64{0, 2}) {
		t.Fatalf("segments %v after the roll, want [0 2]", got)
	}
	acked := make(chan error, 1)
	go func() { acked <- p.AwaitDurable(end) }()
	select {
	case err := <-acked:
		t.Fatalf("record in a rolled, unsynced segment acked (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	if got := p.SyncedNext(); got != 1 {
		t.Fatalf("watermark %d with fsyncs held, want 1", got)
	}
	release()
	if err := <-acked; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{filepath.Base(segFile(path, 0)), filepath.Base(segFile(path, 2)), "p.wal"}
	if !slices.Equal(synced, want) {
		t.Fatalf("the acking cohort synced %v, want %v", synced, want)
	}
}

// TestTruncateUnlinksWholeSegments: Truncate unlinks exactly the segments
// lying wholly below the horizon — waiting out another truncation's unlinks,
// while appends keep landing — and a horizon at the head replaces the
// active segment, leaving one empty file named by the head.
func TestTruncateUnlinksWholeSegments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.wal")
	p := openSmall(t, path, Config{}, 1200) // 26 bytes a record: 47 to a segment
	appendNumbered(t, p, 500)
	want := []int64{0, 47, 94, 141, 188, 235, 282, 329, 376, 423, 470}
	if got := segBases(t, path); !slices.Equal(got, want) {
		t.Fatalf("segments %v, want %v", got, want)
	}

	// Another truncation mid-unlink: segMu is what its unlinks hold.
	p.segMu.Lock()
	done := make(chan struct{})
	go func() { p.Truncate(300); close(done) }()
	for p.Base() != 300 { // the horizon moves at once...
		time.Sleep(time.Millisecond)
	}
	appendNumbered(t, p, 10) // ...appends continue...
	if got := segBases(t, path); !slices.Equal(got, want) {
		t.Fatalf("segments unlinked under another truncation's unlinks: %v", got) // ...and no file goes
	}
	p.segMu.Unlock()
	<-done
	if got := segBases(t, path); !slices.Equal(got, want[6:]) {
		t.Fatalf("segments after Truncate(300): %v, want %v", got, want[6:])
	}
	if _, err := p.Read(299, 1); !errors.Is(err, ErrCompacted) {
		t.Fatalf("read below the horizon: %v", err)
	}
	readThrough(t, p, 300, 510, numbered)

	// A horizon at the head: every file goes, one empty segment named by the
	// head takes over, and the log goes on from there.
	p.Truncate(1 << 40)
	if got := segBases(t, path); !slices.Equal(got, []int64{510}) || dirSize(t, path) != walMagicLen {
		t.Fatalf("fully truncated log: segments %v, %d bytes; want [510], %d bytes", got, dirSize(t, path), walMagicLen)
	}
	p.Truncate(1 << 40) // nothing to replace twice
	if got := segBases(t, path); !slices.Equal(got, []int64{510}) {
		t.Fatalf("second full truncate: segments %v", got)
	}
	appendNumbered(t, p, 5)
	p.CloseFile()
	p2, err := OpenPartition(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.CloseFile()
	if p2.Base() != 510 || p2.Next() != 515 {
		t.Fatalf("reopened: base=%d next=%d, want 510/515", p2.Base(), p2.Next())
	}
	readThrough(t, p2, 510, 515, numbered)
}

// TestTruncateNeverPassesTheFsyncWatermark: what Truncate unlinks must not
// be all that was durable — it syncs the log up to the horizon first, so a
// crash right after it reopens at the horizon, not below it.
func TestTruncateNeverPassesTheFsyncWatermark(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.wal")
	files := &durable.Files{}
	p := openSmall(t, path, Config{Files: files}, 1200)
	appendNumbered(t, p, 200) // ack-on-write: nothing synced yet
	if p.SyncedNext() != 0 {
		t.Fatalf("watermark %d before any sync", p.SyncedNext())
	}
	p.Truncate(150)
	if p.SyncedNext() < 150 {
		t.Fatalf("horizon 150 above the fsync watermark %d", p.SyncedNext())
	}
	crash(t, files, p, 0)
	p2, err := OpenPartition(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.CloseFile()
	if p2.Next() < 150 || p2.Base() > 150 {
		t.Fatalf("after the crash: [%d, %d), the horizon was 150", p2.Base(), p2.Next())
	}
}

// TestReopenSegmentedLog covers what a reopen can find in the directory.
func TestReopenSegmentedLog(t *testing.T) {
	// build writes 200 records over segments of 47 and closes the log.
	build := func(t *testing.T) string {
		path := filepath.Join(t.TempDir(), "p.wal")
		p := openSmall(t, path, Config{}, 1200)
		appendNumbered(t, p, 200)
		p.Sync()
		p.CloseFile()
		return path
	}
	t.Run("resident floor", func(t *testing.T) {
		path := build(t)
		p, err := openPartition(path, Config{}, 150)
		if err != nil {
			t.Fatal(err)
		}
		defer p.CloseFile()
		if p.Base() != 150 || p.Next() != 200 || p.Len() != 50 {
			t.Fatalf("base=%d next=%d len=%d, want 150/200/50", p.Base(), p.Next(), p.Len())
		}
		if _, err := p.Read(149, 1); !errors.Is(err, ErrCompacted) {
			t.Fatalf("read below the replay floor: %v, want ErrCompacted", err)
		}
		readThrough(t, p, 150, 200, numbered)
	})
	t.Run("torn tail in the last segment", func(t *testing.T) {
		path := build(t)
		seg := lastSegment(t, path)
		st, _ := os.Stat(seg)
		os.Truncate(seg, st.Size()-4)
		p, err := OpenPartition(path, Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer p.CloseFile()
		if p.Next() != 199 {
			t.Fatalf("next=%d after a torn last record, want 199", p.Next())
		}
		if st2, _ := os.Stat(seg); st2.Size() != st.Size()-26 {
			t.Fatalf("torn tail not cut: %d bytes, want %d", st2.Size(), st.Size()-26)
		}
		appendNumbered(t, p, 1)
		readThrough(t, p, 0, 200, numbered)
	})
	t.Run("torn tail in a middle segment", func(t *testing.T) {
		path := build(t)
		seg := segFile(path, 47)
		st, _ := os.Stat(seg)
		os.Truncate(seg, st.Size()-4)
		if _, err := OpenPartition(path, Config{}); !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("open over a torn middle segment: %v, want ErrCorruptSegment", err)
		}
	})
	t.Run("missing middle segment", func(t *testing.T) {
		path := build(t)
		os.Remove(segFile(path, 94))
		if _, err := OpenPartition(path, Config{}); !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("open over a gap: %v, want ErrCorruptSegment", err)
		}
		// Below the replay floor the gap is not walked at open: what lies
		// there is gone either way.
		p, err := openPartition(path, Config{}, 150)
		if err != nil {
			t.Fatal(err)
		}
		defer p.CloseFile()
		readThrough(t, p, 150, 200, numbered)
		if _, err := p.Read(100, 1); !errors.Is(err, ErrCompacted) {
			t.Fatalf("read into the gap: %v, want ErrCompacted", err)
		}
	})
	t.Run("stray empty segments", func(t *testing.T) {
		// What a crash leaves of segments rolled after the last fsync: the
		// last synced one cut short, and empty files — one torn inside its
		// magic — named by offsets that never became durable.
		path := build(t)
		seg := lastSegment(t, path) // based at 188
		os.Truncate(seg, walMagicLen+5*26+7)
		os.WriteFile(segFile(path, 200), walMagic[:], 0o644)
		os.WriteFile(segFile(path, 230), walMagic[:3], 0o644)
		p, err := OpenPartition(path, Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer p.CloseFile()
		if p.Next() != 193 {
			t.Fatalf("next=%d, want 193", p.Next())
		}
		if got := segBases(t, path); got[len(got)-1] != 188 {
			t.Fatalf("stray segments kept: %v", got)
		}
		appendNumbered(t, p, 7)
		readThrough(t, p, 0, 200, numbered)
	})
	t.Run("empty active segment", func(t *testing.T) {
		path := build(t)
		os.WriteFile(segFile(path, 200), nil, 0o644) // created, crashed before the magic
		p, err := OpenPartition(path, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if p.Next() != 200 {
			t.Fatalf("next=%d, want 200", p.Next())
		}
		appendNumbered(t, p, 3)
		p.CloseFile()
		p2, err := OpenPartition(path, Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer p2.CloseFile()
		readThrough(t, p2, 0, 203, numbered)
	})
	t.Run("segment that does not follow on", func(t *testing.T) {
		path := build(t)
		seg := lastSegment(t, path)
		body, _ := os.ReadFile(seg)
		os.WriteFile(segFile(path, 300), body, 0o644) // records 188.. under the name 300
		if _, err := OpenPartition(path, Config{}); !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("open over a misnamed segment: %v, want ErrCorruptSegment", err)
		}
	})
}

// TestCrashDiscardAcrossRoll: the unsynced suffix a simulated host crash
// drops can span segments — the one holding the watermark is cut there, and
// every segment rolled after it loses its bytes. Their names, which no
// directory fsync covered, survive when no entry change is undone (a reopen
// drops them: they hold no record) and go when all are.
func TestCrashDiscardAcrossRoll(t *testing.T) {
	for _, undo := range []int{0, math.MaxInt} {
		t.Run(fmt.Sprintf("undo=%d", undo), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "p.wal")
			files := &durable.Files{}
			p := openSmall(t, path, Config{Files: files}, 1200)
			appendNumbered(t, p, 60) // into the second segment
			if err := p.Sync(); err != nil {
				t.Fatal(err)
			}
			appendNumbered(t, p, 140) // three more rolls, none synced
			if p.SyncedNext() != 60 {
				t.Fatalf("watermark %d, want 60", p.SyncedNext())
			}
			if want := int64(140 * 26); p.UnsyncedBytes() != want {
				t.Fatalf("unsynced bytes %d, want %d", p.UnsyncedBytes(), want)
			}
			crash(t, files, p, undo)
			want := []int64{0, 47}
			if undo == 0 {
				want = append(want, 94, 141, 188)
				for _, base := range want[2:] {
					if st, err := os.Stat(segFile(path, base)); err != nil || st.Size() != 0 {
						t.Fatalf("segment %d after the crash: %v, %v; want its name and no byte", base, st, err)
					}
				}
			}
			if got := segBases(t, path); !slices.Equal(got, want) {
				t.Fatalf("segments after the crash: %v, want %v", got, want)
			}
			p2, err := OpenPartition(path, Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer p2.CloseFile()
			if got := segBases(t, path); !slices.Equal(got, []int64{0, 47}) {
				t.Fatalf("segments after the reopen: %v, want [0 47]", got)
			}
			if p2.Next() != 60 || p2.UnsyncedBytes() != 0 {
				t.Fatalf("reopened next=%d unsynced=%d, want the watermark 60 and 0", p2.Next(), p2.UnsyncedBytes())
			}
			appendNumbered(t, p2, 40)
			readThrough(t, p2, 0, 100, numbered)
		})
	}
}

// TestRollDoesNotLeakHandles: only the active segment's handle stays open,
// however many rolls nobody synced.
func TestRollDoesNotLeakHandles(t *testing.T) {
	fds := func() int {
		entries, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd")
		}
		return len(entries)
	}
	path := filepath.Join(t.TempDir(), "p.wal")
	p := openSmall(t, path, Config{}, 256)
	before := fds()
	appendNumbered(t, p, 2000)
	if n := len(segBases(t, path)); n < 100 {
		t.Fatalf("only %d segments", n)
	}
	if after := fds(); after > before+2 {
		t.Fatalf("%d descriptors open after the rolls, %d before", after, before)
	}
	p.CloseFile()
}

// TestSyncToAcrossRollsUnderLoad: SyncTo returns with the watermark at or
// past its target while an appender rolls the log under it.
func TestSyncToAcrossRollsUnderLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.wal")
	p := openSmall(t, path, Config{}, 512)
	const total = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			if _, err := p.Append(make([]byte, 100)); err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		target := p.Next()
		if err := p.SyncTo(target); err != nil {
			t.Fatal(err)
		}
		if got := p.SyncedNext(); got < target {
			t.Fatalf("SyncTo(%d) returned with the watermark at %d", target, got)
		}
	}
	if p.SyncedNext() != total || p.UnsyncedBytes() != 0 {
		t.Fatalf("watermark %d, %d bytes unsynced, after a sync at the head %d", p.SyncedNext(), p.UnsyncedBytes(), total)
	}
	p.CloseFile()
}

// TestOversizeRecordIsRefused: a record longer than MaxRecordBytes, which
// no reader of a segment takes back, is refused with ErrRecordTooLarge —
// its whole batch, before anything changes, a segment roll included — and
// the refusal is not sticky. A record of exactly MaxRecordBytes is taken,
// and the log reopens with everything it acked.
func TestOversizeRecordIsRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.wal")
	p, err := OpenPartition(path, Config{Durability: DurabilityAckOnFsync})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Append([]byte("before")); err != nil {
		t.Fatal(err)
	}
	huge := make([]byte, MaxRecordBytes+1)
	if _, err := p.AppendBatch([][]byte{[]byte("x"), huge}); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("batch holding a %d-byte record: %v, want ErrRecordTooLarge", len(huge), err)
	}
	if _, err := p.StartSegment(huge); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("fresh segment of a %d-byte record: %v, want ErrRecordTooLarge", len(huge), err)
	}
	if p.Err() != nil || p.Next() != 1 || len(segBases(t, path)) != 1 {
		t.Fatalf("a refusal changed the log: err %v, next %d, segments %v", p.Err(), p.Next(), segBases(t, path))
	}
	if _, err := p.AppendBatch([][]byte{huge[:MaxRecordBytes], []byte("after")}); err != nil {
		t.Fatalf("append after the refusal: %v", err)
	}
	p.Close()
	p.CloseFile()
	p2, err := OpenPartition(path, Config{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer p2.CloseFile()
	recs, err := p2.Read(0, 10)
	if err != nil || len(recs) != 3 || string(recs[0].Data) != "before" || len(recs[1].Data) != MaxRecordBytes || string(recs[2].Data) != "after" {
		t.Fatalf("reopened log: %d records (%v), want before, %d bytes, after", len(recs), err, MaxRecordBytes)
	}
}
