package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Disk backing: a partition can be bound to an append-only segment file so
// records survive process restarts — the durability Kafka provided the
// paper's prototype. Record framing is [8B offset][4B length][payload].
// Truncation persists only the retention horizon (a small side file);
// retained records below it are skipped on reload and physically reclaimed
// by Compact. Everything that reads a segment back — reload, reads below
// the memory start, Compact — steps through it with one frameWalker.

const walMagicLen = 8

var walMagic = [walMagicLen]byte{'W', 'W', 'W', 'A', 'L', '0', '0', '1'}

// OpenPartitionFile opens (or creates) a disk-backed partition with the
// default (ack-on-write) durability config. Existing records above the
// stored retention horizon are loaded; appends go to both memory and the
// file.
func OpenPartitionFile(path string) (*Partition, error) {
	return OpenPartition(path, Config{})
}

// OpenPartition opens (or creates) a disk-backed partition with an
// explicit durability config. A torn tail (crash mid-append) is cut back
// to the last intact record so future appends cannot interleave with the
// partial frame — without the cut, a half-written payload followed by new
// records would misparse as an offset gap on the next open and fail the
// whole partition.
func OpenPartition(path string, cfg Config) (*Partition, error) {
	return openPartition(path, cfg, 0)
}

// openPartition is OpenPartition with a memory floor: records below
// resident are left in the segment file instead of loaded, so a reopen
// costs the heap of the tail somebody will replay, not of the whole log.
func openPartition(path string, cfg Config, resident int64) (*Partition, error) {
	p := NewPartition()
	p.path = path
	p.dur = cfg.Durability
	p.interval = cfg.Interval
	p.met = cfg.Metrics

	base, err := readBaseFile(basePath(path))
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	head := base
	if st.Size() == 0 {
		if _, err := f.Write(walMagic[:]); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: init %s: %w", path, err)
		}
	} else {
		first, next, end, err := loadSegment(f, p, max(base, resident))
		if err != nil {
			f.Close()
			return nil, err
		}
		if end < st.Size() {
			if err := f.Truncate(end); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: drop torn tail of %s: %w", path, err)
			}
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: drop torn tail of %s: %w", path, err)
			}
		}
		p.fileBytes = end - walMagicLen
		// A segment that starts above the stored horizon (Compact renamed
		// it in, then crashed before persisting the horizon) or ends below
		// it (everything retained was truncated) moves the horizon or the
		// head to match.
		base = max(base, first)
		head = max(base, next)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	p.file = f
	p.base = base
	p.memStart = head - int64(len(p.store))
	p.head.Set(head)
	// Everything that survived into the file counts as the durable
	// baseline: it is what a reopen after a crash would see.
	p.synced = head
	p.syncedBytes = p.fileBytes
	p.startCommitter()
	return p, nil
}

func basePath(path string) string { return path + ".base" }

func readBaseFile(path string) (int64, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("wal: base file: %w", err)
	}
	if len(raw) != 8 {
		return 0, fmt.Errorf("wal: base file corrupt (%d bytes)", len(raw))
	}
	return int64(binary.BigEndian.Uint64(raw)), nil
}

func writeBaseFile(path string, base int64) error {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(base))
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf[:], 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// frameWalker steps through a segment body frame by frame: next reads a
// header, take consumes the payload. ok=false with a nil error is a clean
// cut — the input ended between frames or inside one (a torn tail). A
// record longer than MaxRecordBytes or an offset that does not follow its
// predecessor is ErrCorruptSegment.
type frameWalker struct {
	r *bufio.Reader
	// end counts the bytes consumed through the last intact frame; want is
	// the offset the next frame must carry (-1 before the first frame takes
	// any). Both move only once a frame's payload has been consumed.
	end  int64
	want int64
	off  int64 // current frame, set by next
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

func (w *frameWalker) next() (off int64, ok bool, err error) {
	var hdr [recordHeaderLen]byte
	if _, err := io.ReadFull(w.r, hdr[:]); err != nil {
		return 0, false, cut(err)
	}
	w.off = int64(binary.BigEndian.Uint64(hdr[0:8]))
	n := binary.BigEndian.Uint32(hdr[8:12])
	if w.off < 0 || w.off == math.MaxInt64 {
		return 0, false, fmt.Errorf("%w: record offset %d", ErrCorruptSegment, w.off)
	}
	if n > MaxRecordBytes {
		return 0, false, fmt.Errorf("%w: record of %d bytes at offset %d", ErrCorruptSegment, n, w.off)
	}
	if w.want >= 0 && w.off != w.want {
		return 0, false, fmt.Errorf("%w: offset gap: want %d, got %d", ErrCorruptSegment, w.want, w.off)
	}
	w.n = int(n)
	return w.off, true, nil
}

// take consumes the current frame's payload — into a slice of its own when
// load is set, passing over it otherwise.
func (w *frameWalker) take(load bool) (data []byte, ok bool, err error) {
	if load {
		data = make([]byte, w.n)
		_, err = io.ReadFull(w.r, data)
	} else {
		_, err = w.r.Discard(w.n)
	}
	if err != nil {
		return nil, false, cut(err)
	}
	w.end += recordHeaderLen + int64(w.n)
	w.want = w.off + 1
	return data, true, nil
}

// loadSegment replays a segment file into the partition's memory window,
// passing over records below keep. A torn final record (crash mid-append)
// is tolerated and dropped. It returns the offset of the first frame and
// the offset after the last intact one (both -1 for an empty body), and the
// file position where the last intact frame ends so the caller can cut the
// torn tail off.
func loadSegment(f *os.File, p *Partition, keep int64) (first, next, end int64, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, 0, err
	}
	var magic [walMagicLen]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return 0, 0, 0, fmt.Errorf("wal: segment header: %w", err)
	}
	if magic != walMagic {
		return 0, 0, 0, fmt.Errorf("wal: bad segment magic in %s", f.Name())
	}
	w := newFrameWalker(f, -1)
	first = -1
	for {
		off, ok, err := w.next()
		var data []byte
		if ok {
			data, ok, err = w.take(off >= keep)
		}
		if err != nil {
			return 0, 0, 0, fmt.Errorf("wal: load %s: %w", f.Name(), err)
		}
		if !ok {
			return first, w.want, walMagicLen + w.end, nil
		}
		if first < 0 {
			first = off
		}
		if off >= keep {
			p.store = append(p.store, data)
			p.bytes += int64(len(data))
		}
	}
}

// readCold serves a read of [offset, offset+max) below the memory start
// from the segment file, ending at the memory start at the latest. The walk
// resumes where the previous cold read stopped when that is at or before
// offset — a reader tailing the cold range pays for the file once, not once
// per call — and starts over from the head of the segment otherwise.
func (p *Partition) readCold(offset int64, max int) ([]Record, error) {
	p.segMu.Lock()
	defer p.segMu.Unlock()
	p.mu.Lock()
	f, limit, stop, base := p.file, p.fileBytes, p.memStart, p.base
	p.mu.Unlock()
	if offset < base {
		return nil, fmt.Errorf("%w: want %d, base %d", ErrCompacted, offset, base)
	}
	if f == nil {
		return nil, fmt.Errorf("wal: read %d below the memory start %d: segment closed", offset, stop)
	}
	if stop > offset+int64(max) {
		stop = offset + int64(max)
	}
	start, want := int64(0), int64(-1)
	if p.coldOff >= 0 && p.coldOff <= offset {
		start, want = p.coldPos, p.coldOff
	}
	w := newFrameWalker(io.NewSectionReader(f, walMagicLen+start, limit-start), want)
	var out []Record
	for size := 0; w.want < stop && size < coldReadBytes; {
		off, ok, err := w.next()
		var data []byte
		if ok {
			if off > offset && len(out) == 0 {
				// The segment starts above the stored horizon (see openPartition).
				return nil, fmt.Errorf("%w: want %d, segment starts at %d", ErrCompacted, offset, off)
			}
			data, ok, err = w.take(off >= offset)
		}
		if err != nil {
			return nil, fmt.Errorf("wal: read %d from %s: %w", offset, p.path, err)
		}
		if !ok {
			// Every byte below limit was written whole under mu.
			return nil, fmt.Errorf("wal: read %d from %s: %w: segment ends at offset %d, below the memory start", offset, p.path, ErrCorruptSegment, w.want)
		}
		if off >= offset {
			out = append(out, Record{Offset: off, Data: data})
			size += len(data)
		}
	}
	p.coldOff, p.coldPos = w.want, start+w.end
	return out, nil
}

// coldReadBytes ends a cold read early (Read returns "up to" max records),
// so a reader asking for a long cold range holds a few MiB of it at a time.
const coldReadBytes = 4 << 20

// MaxRecordBytes bounds one WAL record (16 MiB).
const MaxRecordBytes = 16 << 20

// recordHeaderLen is the per-record frame overhead: [8B offset][4B length].
const recordHeaderLen = 12

// Sync flushes the segment file to stable storage and advances the fsync
// watermark (no-op for in-memory partitions).
func (p *Partition) Sync() error {
	return p.syncCohort()
}

// compactHook, when set (tests only), runs after Compact has taken its
// snapshot and released the partition lock — a deterministic window in
// which concurrent appends must succeed.
var compactHook func()

// Compact rewrites the segment file to contain only records at or above
// the logical horizon, reclaiming the space Truncate freed logically. The
// retained run is copied out of the old segment, not out of memory — the
// resident window may have been released well past the horizon. The rewrite
// works on the bytes present when it started without holding p.mu — appends
// and resident reads proceed concurrently — and only the file swap takes
// the lock: bytes appended during the rewrite are copied across inside the
// swap's critical section, whose cost is bounded by the rewrite's duration
// rather than the segment size. The new file is fully fsynced before it
// replaces the old one, so the fsync watermark jumps to the head and parked
// group-commit waiters are released. No-op for in-memory partitions.
func (p *Partition) Compact() error {
	// segMu for the whole rewrite: it keeps the source handle from being
	// swapped out by a second Compact, and cold reads off the file they
	// are walking.
	p.segMu.Lock()
	defer p.segMu.Unlock()
	p.mu.Lock()
	if p.file == nil || p.fileErr != nil {
		err := p.fileErr
		p.mu.Unlock()
		return err
	}
	base, limit, src := p.base, p.fileBytes, p.file
	p.mu.Unlock()

	if compactHook != nil {
		compactHook()
	}

	tmpPath := p.path + ".compact"
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return err
	}
	abort := func(err error) error {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	if _, err := tmp.Write(walMagic[:]); err != nil {
		return abort(err)
	}
	// Find where the horizon's frame starts; from there on the old body is
	// the new body, byte for byte.
	w := newFrameWalker(io.NewSectionReader(src, walMagicLen, limit), -1)
	for {
		off, ok, err := w.next()
		if ok && off < base {
			_, ok, err = w.take(false)
		}
		if err != nil {
			return abort(fmt.Errorf("wal: compact %s: %w", p.path, err))
		}
		if !ok || off >= base {
			break
		}
	}
	copyBody := func(from, to int64) error {
		_, err := io.Copy(tmp, io.NewSectionReader(src, walMagicLen+from, to-from))
		return err
	}
	if err := copyBody(w.end, limit); err != nil {
		return abort(err)
	}
	if err := tmp.Sync(); err != nil {
		return abort(err)
	}

	// Swap: appends stall only from here. syncMu keeps an in-flight cohort
	// fsync from targeting the handle being swapped out.
	p.syncMu.Lock()
	defer p.syncMu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.file == nil || p.fileErr != nil {
		return abort(p.fileErr)
	}
	// Catch up on bytes appended during the rewrite.
	if p.fileBytes > limit {
		if err := copyBody(limit, p.fileBytes); err != nil {
			return abort(err)
		}
		if err := tmp.Sync(); err != nil {
			return abort(err)
		}
	}
	if err := os.Rename(tmpPath, p.path); err != nil {
		return abort(err)
	}
	p.file = tmp // keep writing through the renamed handle
	p.fileBytes -= w.end
	p.syncedBytes = p.fileBytes
	p.coldOff = -1
	if head := p.headLocked(); p.synced < head {
		p.synced = head
		p.syncedCond.Broadcast()
	}
	src.Close()
	return writeBaseFile(basePath(p.path), p.base)
}

// CloseFile stops the committer and releases the backing file handle
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
	if p.fileErr == nil {
		p.fileErr = fmt.Errorf("wal: segment closed")
	}
	p.syncedCond.Broadcast()
	return err
}

// OpenLogDir opens a disk-backed log with n partitions under dir with the
// default (ack-on-write) durability config, every retained record resident.
func OpenLogDir(dir string, n int) (*Log, error) {
	return OpenLogDirConfig(dir, n, Config{}, func(int) int64 { return 0 })
}

// OpenLogDirConfig opens a disk-backed log with n partitions under dir
// (partition i lives in dir/p<i>.wal), all sharing one durability config.
// resident gives each partition's memory floor: records below resident(i)
// stay in the segment file instead of being loaded — the caller names the
// offset its replay starts from.
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
