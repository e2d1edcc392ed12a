package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Disk backing: a partition bound to a directory keeps its records in a run
// of segment files, each named by the offset of its first record — Kafka's
// layout, the durability the paper's prototype took from it (§V). A segment
// is walMagic followed by [8B offset][4B length][4B CRC32C][payload] frames,
// the Castagnoli CRC taken over the whole frame with its CRC field as zero
// (stampFrame). Appends go to the last (active) segment; once its body
// reaches SegmentBytes a fresh file based at the head takes over
// (rollLocked). Retention is by whole segment: Truncate unlinks every
// segment lying wholly below the horizon, so the files may begin below the
// horizon. A reopen starts the horizon at the offset its replay starts from
// and loads only what lies above it, stepping through each segment with one
// frameWalker.

const walMagicLen = 8

// walMagic opens every segment; its last three bytes are the layout version.
var walMagic = [walMagicLen]byte{'W', 'W', 'W', 'A', 'L', '0', '0', '2'}

// ErrUnsupportedVersion is returned by OpenPartition over a segment of
// another layout version: one written before frames carried a CRC. Such a
// log is refused, not read unchecked.
var ErrUnsupportedVersion = errors.New("wal: segment of an unsupported layout version")

// castagnoli is the CRC32C table every frame is checked with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// stampFrame sets the offset of frame f — header and payload, its length
// already in place — and the CRC32C of the whole frame with the CRC field
// taken as zero.
func stampFrame(f []byte, off int64) {
	binary.BigEndian.PutUint64(f[0:8], uint64(off))
	clear(f[12:recordHeaderLen])
	binary.BigEndian.PutUint32(f[12:recordHeaderLen], crc32.Checksum(f, castagnoli))
}

// SegmentBytes is the body size at which the active segment rolls. It is the
// unit of retention (a truncation frees whole segments), so it is a constant
// of the layout, not a knob: at 70 MB/s of log it is some 18 file creates a
// second.
const SegmentBytes = 4 << 20

const segSuffix = ".seg"

// ErrLegacyLayout is returned by OpenPartition when its path holds the
// single-file log of an older layout instead of a segment directory.
var ErrLegacyLayout = errors.New("wal: single-file log of an older layout (not a segment directory)")

// segment is one file of a disk-backed partition's run.
type segment struct {
	base  int64 // offset of its first record, and its file name
	bytes int64 // body bytes: the frames after the magic
}

func (p *Partition) segPath(base int64) string {
	return filepath.Join(p.path, fmt.Sprintf("%020d%s", base, segSuffix))
}

// OpenPartition opens (or creates) a disk-backed partition in the directory
// path, every retained record resident. A torn tail (crash mid-append) is
// cut back to the last intact record so future appends cannot interleave
// with the partial frame — without the cut, a half-written payload followed
// by new records would misparse as an offset gap on the next open and fail
// the whole partition.
func OpenPartition(path string, cfg Config) (*Partition, error) {
	return openPartition(path, cfg, 0)
}

// openPartition is OpenPartition with a horizon: records below resident are
// gone (ErrCompacted) and left in their segment files instead of loaded, so
// a reopen costs the heap of the tail somebody will replay, not of the whole
// log. The next Truncate unlinks the segments wholly below it.
func openPartition(path string, cfg Config, resident int64) (*Partition, error) {
	if st, err := os.Stat(path); err == nil && !st.IsDir() {
		return nil, fmt.Errorf("%w: %s", ErrLegacyLayout, path)
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	p := NewPartition()
	p.path = path
	p.dur = cfg.Durability
	p.interval = cfg.Interval
	p.met = cfg.Metrics
	p.files = cfg.Files
	p.segBytes = SegmentBytes

	bases, err := listSegments(path)
	if err != nil {
		return nil, err
	}
	var head int64
	if len(bases) == 0 {
		if p.file, err = p.createSegment(0); err != nil {
			return nil, err
		}
		p.segs = []segment{{}}
		// The first segment's name, and the directory's own, are what a
		// reopen after a host crash finds the log by.
		for _, dir := range []string{path, filepath.Dir(path)} {
			if err := p.files.Sync(dir); err != nil {
				p.file.Close()
				return nil, fmt.Errorf("wal: open %s: %w", path, err)
			}
		}
	} else if head, err = p.loadSegments(bases, resident); err != nil {
		return nil, err
	}
	p.base = head - int64(len(p.store))
	p.head.Set(head)
	// Everything that survived into the files counts as the durable
	// baseline: it is what a reopen after a crash would see.
	p.synced.Set(head)
	p.syncedAt = p.segs[len(p.segs)-1]
	p.startCommitter()
	return p, nil
}

// listSegments returns the bases of the segment files in dir, ascending.
func listSegments(dir string) ([]int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list %s: %w", dir, err)
	}
	var bases []int64
	for _, e := range entries {
		digits, ok := strings.CutSuffix(e.Name(), segSuffix)
		if !ok {
			continue
		}
		if base, err := strconv.ParseInt(digits, 10, 64); err == nil && base >= 0 {
			bases = append(bases, base)
		}
	}
	slices.Sort(bases)
	return bases, nil
}

// createSegment creates the empty segment file based at base: the magic and
// no frame.
func (p *Partition) createSegment(base int64) (*os.File, error) {
	path := p.segPath(base)
	f, err := p.files.Create(path)
	if err != nil {
		return nil, fmt.Errorf("wal: create segment: %w", err)
	}
	if _, err := f.Write(walMagic[:]); err != nil {
		f.Close()
		p.files.Remove(path)
		return nil, fmt.Errorf("wal: create segment: %w", err)
	}
	return f, nil
}

// loadSegments rebuilds the partition from the segment files named by
// bases: the one loader. Segments wholly below resident are listed, not
// read; from the one holding resident on, each is walked — its first frame
// must carry the offset in its name and it must end where the next begins —
// and the records at or above resident are loaded. The run ends at the first
// torn tail; a crash leaves behind it only segments rolled after the last
// fsync, which are dropped if, and only if, they hold no intact record. The
// last surviving segment is cut to its last intact frame and becomes the
// active one. It returns the head.
func (p *Partition) loadSegments(bases []int64, resident int64) (head int64, err error) {
	first := max(sort.Search(len(bases), func(i int) bool { return bases[i] > resident })-1, 0)
	for _, b := range bases[:first] {
		st, err := os.Stat(p.segPath(b))
		if err != nil {
			return 0, fmt.Errorf("wal: load: %w", err)
		}
		p.segs = append(p.segs, segment{base: b, bytes: max(st.Size()-walMagicLen, 0)})
	}
	head = bases[first]
	torn := false
	k := first
	for k < len(bases) && bases[k] == head && !torn {
		var body int64
		if head, body, torn, err = loadSegment(p.segPath(bases[k]), p, bases[k], resident); err != nil {
			return 0, err
		}
		p.segs = append(p.segs, segment{base: bases[k], bytes: body})
		k++
	}
	for _, b := range bases[k:] {
		if _, body, _, err := loadSegment(p.segPath(b), p, b, math.MaxInt64); err != nil || body > 0 {
			return 0, fmt.Errorf("%w: segment %d in %s does not follow offset %d", ErrCorruptSegment, b, p.path, head)
		}
		if err := p.files.Remove(p.segPath(b)); err != nil {
			return 0, fmt.Errorf("wal: drop stray segment: %w", err)
		}
	}
	active := p.segs[len(p.segs)-1]
	f, err := p.files.Open(p.segPath(active.base))
	if err != nil {
		return 0, fmt.Errorf("wal: open %s: %w", p.path, err)
	}
	if torn {
		// Cut the tail; a file torn inside its magic gets the magic again.
		err = f.Truncate(walMagicLen + active.bytes)
		if err == nil {
			_, err = f.WriteAt(walMagic[:], 0)
		}
		if err == nil {
			err = p.files.Sync(f.Name())
		}
	}
	if err == nil {
		_, err = f.Seek(0, io.SeekEnd)
	}
	if err != nil {
		f.Close()
		return 0, fmt.Errorf("wal: drop torn tail of %s: %w", f.Name(), err)
	}
	p.file = f
	return head, nil
}

// frameWalker steps through a segment body frame by frame: next reads a
// header, take consumes the payload and checks the frame's CRC. ok=false
// with a nil error is a clean cut — the input ended between frames or inside
// one, or its last frame fails its CRC (a torn tail). A CRC mismatch with
// more bytes behind it, a record longer than MaxRecordBytes, or an intact
// frame whose offset does not follow its predecessor is ErrCorruptSegment.
// The known limit: a flipped length that runs past the end of the input
// reads as a torn tail too, and is cut.
type frameWalker struct {
	r *bufio.Reader
	// end counts the bytes consumed through the last intact frame; want is
	// the offset the next frame must carry (-1 before the first frame takes
	// any). Both move only once a frame's payload has been consumed.
	end  int64
	want int64
	hdr  [recordHeaderLen]byte // current frame, read by next: its CRC field zeroed
	sum  uint32                // the CRC field
	off  int64
	n    int
}

func newFrameWalker(r io.Reader, want int64) *frameWalker {
	return &frameWalker{r: bufio.NewReaderSize(r, 64<<10), want: want}
}

// cut maps the two ways a reader runs dry mid-frame to a clean cut.
func cut(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return nil
	}
	return err
}

// next reads the current frame's header. Its offset is trusted only once
// take has checked the frame's CRC.
func (w *frameWalker) next() (off int64, ok bool, err error) {
	if _, err := io.ReadFull(w.r, w.hdr[:]); err != nil {
		return 0, false, cut(err)
	}
	w.off = int64(binary.BigEndian.Uint64(w.hdr[0:8]))
	n := binary.BigEndian.Uint32(w.hdr[8:12])
	w.sum = binary.BigEndian.Uint32(w.hdr[12:recordHeaderLen])
	clear(w.hdr[12:recordHeaderLen])
	if n > MaxRecordBytes {
		return 0, false, fmt.Errorf("%w: record of %d bytes at offset %d", ErrCorruptSegment, n, w.off)
	}
	w.n = int(n)
	return w.off, true, nil
}

// take consumes the current frame's payload — into a slice of its own when
// load is set, passing over it otherwise — and checks the frame's CRC.
func (w *frameWalker) take(load bool) (data []byte, ok bool, err error) {
	sum := crc32.Checksum(w.hdr[:], castagnoli)
	if load {
		data = make([]byte, w.n)
		_, err = io.ReadFull(w.r, data)
		sum = crc32.Update(sum, castagnoli, data)
	} else {
		for left := w.n; left > 0 && err == nil; {
			var b []byte
			b, err = w.r.Peek(min(left, w.r.Size()))
			sum = crc32.Update(sum, castagnoli, b)
			left -= len(b)
			w.r.Discard(len(b))
		}
	}
	if err != nil {
		return nil, false, cut(err)
	}
	if sum != w.sum {
		if _, err := w.r.Peek(1); err == io.EOF {
			return nil, false, nil // the last frame, torn
		}
		return nil, false, fmt.Errorf("%w: CRC mismatch in the frame at byte %d", ErrCorruptSegment, w.end)
	}
	if w.off < 0 || w.off == math.MaxInt64 {
		return nil, false, fmt.Errorf("%w: record offset %d", ErrCorruptSegment, w.off)
	}
	if w.want >= 0 && w.off != w.want {
		return nil, false, fmt.Errorf("%w: offset gap: want %d, got %d", ErrCorruptSegment, w.want, w.off)
	}
	w.end += recordHeaderLen + int64(w.n)
	w.want = w.off + 1
	return data, true, nil
}

// loadSegment walks one segment file, whose first frame must carry offset
// base, and appends the records at or above keep to the partition's window.
// It returns the offset after the last intact frame, the bytes the intact
// frames take, and whether the file holds anything else: a torn final record
// (crash mid-append), which only the last segment of a log may have.
func loadSegment(path string, p *Partition, base, keep int64) (next, body int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, false, fmt.Errorf("wal: load: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, false, fmt.Errorf("wal: load: %w", err)
	}
	var magic [walMagicLen]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		if cut(err) == nil {
			return base, 0, true, nil // crashed before the magic was whole
		}
		return 0, 0, false, fmt.Errorf("wal: segment header: %w", err)
	}
	if magic != walMagic {
		if bytes.Equal(magic[:5], walMagic[:5]) {
			return 0, 0, false, fmt.Errorf("%w: %s is %q, this build reads %q", ErrUnsupportedVersion, path, magic[5:], walMagic[5:])
		}
		return 0, 0, false, fmt.Errorf("%w: bad segment magic in %s", ErrCorruptSegment, path)
	}
	w := newFrameWalker(f, base)
	for {
		off, ok, err := w.next()
		var data []byte
		if ok {
			data, ok, err = w.take(off >= keep)
		}
		if err != nil {
			return 0, 0, false, fmt.Errorf("wal: load %s: %w", path, err)
		}
		if !ok {
			return w.want, w.end, walMagicLen+w.end < st.Size(), nil
		}
		if off >= keep {
			p.store = append(p.store, data)
			p.bytes += int64(len(data))
		}
	}
}

// rollLocked makes a fresh segment based at the head the active one. The
// full segment's handle is closed here and nothing else: its bytes reach
// stable storage, by path, with the next syncCohort, which is what keeps
// every fsync off the append path. When the file cannot be created the
// active segment simply grows on, and the next append tries again.
// Requires mu.
func (p *Partition) rollLocked() {
	head := p.headLocked()
	f, err := p.createSegment(head)
	if err != nil {
		return
	}
	p.file.Close()
	p.file = f
	p.segs = append(p.segs, segment{base: head})
}

// MaxRecordBytes bounds one WAL record (16 MiB).
const MaxRecordBytes = 16 << 20

// recordHeaderLen is the per-record frame overhead: [8B offset][4B length]
// [4B CRC32C].
const recordHeaderLen = 16

// Sync flushes the segment files to stable storage and advances the fsync
// watermark (no-op for in-memory partitions).
func (p *Partition) Sync() error {
	return p.syncCohort()
}

// truncateDisk is Truncate for a disk-backed partition: the exact horizon
// moves in memory, and every segment lying wholly below it is unlinked —
// outside mu, oldest first, one truncation's unlinks at a time (segMu). A
// horizon that reaches the head covers the active segment too: a fresh one
// based at the head replaces it, so a log with nothing left to replay is one
// 8-byte file whose name is its head. The horizon never passes the fsync
// watermark — what is unlinked must not be all that was durable — so the log
// is synced up to it first. A segment stays listed until its file is gone:
// an unlink that failed is tried again by the next call.
func (p *Partition) truncateDisk(before int64) {
	p.SyncTo(before)
	// syncMu: no cohort is about to fsync, by path, a segment doomed here.
	p.syncMu.Lock()
	p.mu.Lock()
	if p.file == nil || p.fileErr != nil {
		p.truncateLocked(before)
		p.mu.Unlock()
		p.syncMu.Unlock()
		return
	}
	p.truncateLocked(min(before, p.synced.Load()))
	n := 0
	for n+1 < len(p.segs) && p.segs[n+1].base <= p.base {
		n++
	}
	replaced := false
	if head := p.headLocked(); n == len(p.segs)-1 && p.base == head && p.segs[n].bytes > 0 {
		if f, err := p.createSegment(head); err == nil {
			p.file.Close()
			p.file = f
			p.segs = append(p.segs, segment{base: head})
			n++
			replaced = true
		}
	}
	doomed := slices.Clone(p.segs[:n])
	if p.syncedAt.base < p.segs[n].base {
		p.syncedAt = segment{base: p.segs[n].base}
	}
	p.mu.Unlock()
	p.syncMu.Unlock()
	if len(doomed) == 0 {
		return
	}
	p.segMu.Lock()
	defer p.segMu.Unlock()
	if replaced && p.files.Sync(p.path) != nil {
		return // the fresh segment's name is not durable: keep the old ones
	}
	gone := 0
	for _, s := range doomed {
		if err := p.files.Remove(p.segPath(s.base)); err != nil && !os.IsNotExist(err) {
			break // what is left is a whole suffix of the log
		}
		gone++
	}
	p.files.Sync(p.path)
	p.mu.Lock()
	for gone > 0 && p.segs[0].base <= doomed[gone-1].base {
		p.segs = slices.Delete(p.segs, 0, 1)
	}
	p.mu.Unlock()
}

// DiskBytes returns the size of the partition's segment files.
func (p *Partition) DiskBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	if p.file != nil {
		for _, s := range p.segs {
			n += walMagicLen + s.bytes
		}
	}
	return n
}

// CloseFile stops the committer and releases the active segment's handle
// (retained records stay readable from memory). Further appends fail.
func (p *Partition) CloseFile() error {
	p.stopCommitter()
	p.syncMu.Lock()
	defer p.syncMu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.file == nil {
		return nil
	}
	err := p.file.Close()
	p.file = nil
	p.breakLocked(fmt.Errorf("wal: segment closed"))
	return err
}

// OpenLogDirConfig opens a disk-backed log with n partitions under dir
// (partition i lives in the directory dir/p<i>.wal), all sharing one
// durability config. resident gives each partition's horizon: the caller
// names the offset its replay starts from, and below it is ErrCompacted.
func OpenLogDirConfig(dir string, n int, cfg Config, resident func(part int) int64) (*Log, error) {
	if n < 1 {
		n = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: log dir: %w", err)
	}
	l := &Log{parts: make([]*Partition, n), dir: dir, cfg: cfg}
	for i := range l.parts {
		p, err := openPartition(filepath.Join(dir, fmt.Sprintf("p%d.wal", i)), cfg, resident(i))
		if err != nil {
			return nil, err
		}
		l.parts[i] = p
	}
	return l, nil
}
