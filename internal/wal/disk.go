package wal

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Disk backing: a partition can be bound to an append-only segment file so
// records survive process restarts — the durability Kafka provided the
// paper's prototype. Record framing is [8B offset][4B length][payload].
// Truncation persists only the retention horizon (a small side file);
// retained records below it are skipped on reload and physically reclaimed
// by Compact.

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
	if st.Size() == 0 {
		if _, err := f.Write(walMagic[:]); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: init %s: %w", path, err)
		}
	} else {
		end, err := loadSegment(f, p, base)
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
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	p.file = f
	if p.base < base {
		// Empty or fully-truncated segment: the horizon still applies.
		p.base = base
	}
	// Everything that survived into the file counts as the durable
	// baseline: it is what a reopen after a crash would see.
	p.synced = p.base + int64(len(p.records))
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

// loadSegment replays a segment file into the partition, skipping records
// below the retention horizon. A torn final record (crash mid-append) is
// tolerated and dropped; the returned byte offset marks the end of the
// last intact record so the caller can cut the torn tail off the file.
func loadSegment(f *os.File, p *Partition, horizon int64) (int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, err
	}
	var magic [walMagicLen]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return 0, fmt.Errorf("wal: segment header: %w", err)
	}
	if magic != walMagic {
		return 0, fmt.Errorf("wal: bad segment magic in %s", f.Name())
	}
	var hdr [recordHeaderLen]byte
	expect := int64(-1)
	end := int64(walMagicLen)
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return end, nil // clean end or torn header
			}
			return 0, err
		}
		off := int64(binary.BigEndian.Uint64(hdr[0:8]))
		n := binary.BigEndian.Uint32(hdr[8:12])
		if n > MaxRecordBytes {
			return 0, fmt.Errorf("wal: segment record too large (%d bytes)", n)
		}
		data := make([]byte, n)
		if _, err := io.ReadFull(f, data); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return end, nil // torn payload: drop
			}
			return 0, err
		}
		if expect >= 0 && off != expect {
			return 0, fmt.Errorf("wal: segment offset gap: want %d, got %d", expect, off)
		}
		expect = off + 1
		end += recordHeaderLen + int64(n)
		if off < horizon {
			continue
		}
		if len(p.records) == 0 {
			p.base = off
		}
		p.records = append(p.records, data)
		p.bytes += int64(len(data))
	}
}

// MaxRecordBytes bounds one WAL record (16 MiB).
const MaxRecordBytes = 16 << 20

// recordHeaderLen is the per-record frame overhead: [8B offset][4B length].
const recordHeaderLen = 12

// Sync flushes the segment file to stable storage and advances the fsync
// watermark (no-op for in-memory partitions).
func (p *Partition) Sync() error {
	return p.syncCohort()
}

// writeFrame writes one framed record to w.
func writeFrame(w io.Writer, off int64, rec []byte) error {
	var hdr [recordHeaderLen]byte
	binary.BigEndian.PutUint64(hdr[0:8], uint64(off))
	binary.BigEndian.PutUint32(hdr[8:12], uint32(len(rec)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(rec)
	return err
}

// compactHook, when set (tests only), runs after Compact has taken its
// snapshot and released the partition lock — a deterministic window in
// which concurrent appends must succeed.
var compactHook func()

// Compact rewrites the segment file to contain only retained records,
// reclaiming the space Truncate freed logically. The rewrite runs from a
// snapshot without holding p.mu — appends and reads proceed concurrently —
// and only the file swap takes the lock: records appended during the
// rewrite are framed into the new file inside the swap's critical section,
// whose cost is bounded by the rewrite's duration rather than the segment
// size. The new file is fully fsynced before it replaces the old one, so
// the fsync watermark jumps to the head and parked group-commit waiters
// are released. No-op for in-memory partitions.
func (p *Partition) Compact() error {
	p.mu.Lock()
	if p.file == nil {
		err := p.fileErr
		p.mu.Unlock()
		return err
	}
	if p.fileErr != nil {
		err := p.fileErr
		p.mu.Unlock()
		return err
	}
	base := p.base
	// Safe to read outside the lock: Truncate replaces the slice rather
	// than mutating it, appends only grow past len(recs), and record
	// payloads are immutable once appended.
	recs := p.records
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
	var written int64
	for i, rec := range recs {
		if err := writeFrame(tmp, base+int64(i), rec); err != nil {
			return abort(err)
		}
		written += recordHeaderLen + int64(len(rec))
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
	// Catch up on records appended (and not truncated) during the rewrite.
	head := p.base + int64(len(p.records))
	delta := base + int64(len(recs))
	if delta < p.base {
		delta = p.base
	}
	for off := delta; off < head; off++ {
		rec := p.records[off-p.base]
		if err := writeFrame(tmp, off, rec); err != nil {
			return abort(err)
		}
		written += recordHeaderLen + int64(len(rec))
	}
	if delta < head {
		if err := tmp.Sync(); err != nil {
			return abort(err)
		}
	}
	if err := os.Rename(tmpPath, p.path); err != nil {
		return abort(err)
	}
	old := p.file
	p.file = tmp // keep writing through the renamed handle
	p.fileBytes = written
	p.syncedBytes = written
	if p.synced < head {
		p.synced = head
		p.syncedCond.Broadcast()
	}
	old.Close()
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
// default (ack-on-write) durability config.
func OpenLogDir(dir string, n int) (*Log, error) {
	return OpenLogDirConfig(dir, n, Config{})
}

// OpenLogDirConfig opens a disk-backed log with n partitions under dir
// (partition i lives in dir/p<i>.wal), all sharing one durability config.
func OpenLogDirConfig(dir string, n int, cfg Config) (*Log, error) {
	if n < 1 {
		n = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: log dir: %w", err)
	}
	l := &Log{parts: make([]*Partition, n), dir: dir, cfg: cfg}
	for i := range l.parts {
		p, err := OpenPartition(filepath.Join(dir, fmt.Sprintf("p%d.wal", i)), cfg)
		if err != nil {
			return nil, err
		}
		l.parts[i] = p
	}
	return l, nil
}
