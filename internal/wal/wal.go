// Package wal implements the replayable, partitioned append log Waterwheel
// uses as its reliable input queue (paper §V). It stands in for Kafka:
// records in each partition receive increasing offsets, and records from
// any retained offset can be replayed on request — which is exactly the
// property indexing-server recovery depends on: flush stores the current
// read offset in the metadata server, and a re-launched server replays from
// there to rebuild its in-memory B+ tree.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"waterwheel/internal/durable"
)

// ErrCompacted is returned when a read targets offsets below the retention
// horizon.
var ErrCompacted = errors.New("wal: offset below retention horizon")

// ErrCorruptSegment is returned when a partition's segment files do not hold
// one gapless run of bounded records.
var ErrCorruptSegment = errors.New("wal: corrupt segment")

// ErrClosed is returned by blocking reads and by appends once the partition
// is closed: a closed partition has no consumer left to apply what it takes.
var ErrClosed = errors.New("wal: partition closed")

// ErrRecordTooLarge refuses a batch holding a record longer than
// MaxRecordBytes, which no reader of a segment would take back. The refusal
// changes nothing and is not sticky: the next append goes through.
var ErrRecordTooLarge = errors.New("wal: record exceeds MaxRecordBytes")

// ErrInjectedAppend is the transient failure armed by FailNextAppends.
var ErrInjectedAppend = errors.New("wal: injected append fault")

// ErrSealed is returned by appends to a sealed partition. Decommission
// seals the retiring slot's partition after rerouting new traffic: an
// in-flight append that raced past the reroute check fails here instead
// of landing in a log nobody will ever replay, and the sink retries it
// against the current schema. Reads and replay remain available.
var ErrSealed = errors.New("wal: partition sealed")

// Record is one log entry with its assigned offset.
type Record struct {
	Offset int64
	Data   []byte
}

// Partition is an append-only, offset-addressed record log. It corresponds
// to one partition of a topic: each indexing server consumes exactly one
// partition.
type Partition struct {
	mu sync.Mutex
	// head is the offset the next record will receive, published after
	// every append for ReadBlocking to park on; Close fails it.
	head Watermark
	// base is the horizon: the offset of the first resident record. Offsets
	// below it are gone and read as ErrCompacted; only Truncate moves it (and
	// a reopen, which starts it at the replay offset).
	base int64
	// store[lo:] is the resident window, store[lo+i] holding offset
	// base+i; store[:lo] are released slots, reused by sliding the window
	// down instead of growing the array (reserveLocked).
	store [][]byte
	lo    int
	// bytes is the resident payload size.
	bytes int64
	// sealed and closed both refuse appends: sealed because the slot was
	// decommissioned (the sink reroutes), closed because the log was.
	sealed, closed bool

	// Disk backing (path empty for in-memory partitions); see disk.go. segs is
	// the run of segment files in path, ascending, the last one active: file
	// is its handle, the only one the partition keeps. segMu keeps two
	// truncations' unlinks apart; it is taken before mu, never with syncMu.
	path     string
	files    *durable.Files
	segs     []segment
	segBytes int64
	file     *os.File
	fileErr  error
	segMu    sync.Mutex
	// failAppends arms FailNextAppends's transient (non-sticky) faults.
	failAppends int

	// Durability pipeline (disk-backed partitions only); see commit.go.
	// syncMu serializes fsyncs against each other and against Truncate's
	// unlinks, and is always taken before mu. synced/syncedAt form the fsync
	// watermark: every record below offset `synced` — every segment below
	// syncedAt.base and the first syncedAt.bytes body bytes of that one — is
	// on stable storage. synced is Set under mu and failed by breakLocked.
	dur      Durability
	interval time.Duration
	met      Metrics
	syncMu   sync.Mutex
	synced   Watermark
	syncedAt segment
	commStop chan struct{}
	commDone chan struct{}
	stopOnce sync.Once
}

// NewPartition creates an empty partition.
func NewPartition() *Partition { return &Partition{} }

// Append stores one record, returning its offset: AppendBatch of one.
func (p *Partition) Append(data []byte) (int64, error) {
	return p.AppendBatch([][]byte{data})
}

// AppendBatch stores a batch of records and returns the offset of the
// first once the partition's durability policy is met: StartAppend, then
// AwaitDurable. Under DurabilityAckOnFsync the batch parks once, for a
// watermark covering its LAST record: the committer goroutine batches all
// appends that arrive while an fsync is in flight into the next cohort, so
// concurrent appenders share (amortize) fsyncs and a single cohort acks
// the whole batch.
func (p *Partition) AppendBatch(datas [][]byte) (int64, error) {
	if len(datas) == 0 {
		return p.Next(), nil
	}
	end, err := p.StartAppend(datas)
	if err != nil {
		return 0, err
	}
	return end - int64(len(datas)), p.AwaitDurable(end)
}

// StartAppend is the first half of AppendBatch: it stores the batch under
// ONE lock acquisition and returns the offset past its last record without
// waiting for durability, so a caller appending to several partitions can
// have every fsync cohort in flight before it parks on the first
// (AwaitDurable). The head it publishes is what the ack-on-fsync committer
// waits on. The records are readable — and will be consumed — at once; only
// the ack has to wait.
//
// The data is copied: the batch is framed into a single buffer outside the
// lock, offsets are patched in under it once they are known, and the
// active segment takes one file write (a batch never straddles two); the retained in-memory records alias the
// payload sections of that buffer, so a batch of any size costs one
// allocation.
//
// Failure is all-or-nothing. A record longer than MaxRecordBytes refuses
// the batch with ErrRecordTooLarge before the partition changes anything. On
// a disk error no record of the batch is retained in memory, so a tuple the
// log cannot hold is never acked, never consumed, and never covered by a
// flush-offset commit (stop-the-line, matching the flush pipeline's
// semantics). That error is sticky: once the segment is broken every later
// append fails until the partition is reopened.
func (p *Partition) StartAppend(datas [][]byte) (end int64, err error) {
	return p.startAppend(datas, false)
}

// StartSegment is StartAppend of one record that opens a fresh segment file
// of its own (unless the active one is still empty): a Truncate at its
// offset then unlinks every segment before it. The metadata journal puts
// the first part of each compaction there.
func (p *Partition) StartSegment(data []byte) (end int64, err error) {
	return p.startAppend([][]byte{data}, true)
}

func (p *Partition) startAppend(datas [][]byte, fresh bool) (end int64, err error) {
	total := 0
	for _, d := range datas {
		if len(d) > MaxRecordBytes {
			return 0, fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, len(d))
		}
		total += recordHeaderLen + len(d)
	}
	buf := make([]byte, total)
	pos := 0
	for _, d := range datas {
		binary.BigEndian.PutUint32(buf[pos+8:pos+recordHeaderLen], uint32(len(d)))
		pos += recordHeaderLen + copy(buf[pos+recordHeaderLen:], d)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, ErrClosed
	}
	if p.sealed {
		return 0, ErrSealed
	}
	if p.fileErr != nil {
		return 0, p.fileErr
	}
	if p.failAppends > 0 {
		p.failAppends--
		return 0, ErrInjectedAppend
	}
	if fresh && p.file != nil && p.segs[len(p.segs)-1].bytes > 0 {
		p.rollLocked()
	}
	p.reserveLocked(len(datas))
	mark := len(p.store)
	// Second walk of buf: stamp each header's offset and slice its record
	// out. The lengths written above make the frames self-describing, so no
	// side table of positions has to survive from the first walk.
	for pos = 0; pos < total; {
		binary.BigEndian.PutUint64(buf[pos:pos+8], uint64(p.headLocked()))
		next := pos + recordHeaderLen + int(binary.BigEndian.Uint32(buf[pos+8:pos+recordHeaderLen]))
		p.store = append(p.store, buf[pos+recordHeaderLen:next:next])
		pos = next
	}
	if p.file != nil {
		if _, err := p.file.Write(buf); err != nil {
			clear(p.store[mark:])
			p.store = p.store[:mark]
			return 0, p.breakLocked(fmt.Errorf("wal: segment append: %w", err))
		}
		active := &p.segs[len(p.segs)-1]
		if active.bytes += int64(total); active.bytes >= p.segBytes {
			p.rollLocked()
		}
	}
	p.bytes += int64(total) - int64(len(datas))*recordHeaderLen
	end = p.headLocked()
	p.head.Set(end)
	return end, nil
}

// AwaitDurable is the second half of AppendBatch: it returns once every
// record below end meets the partition's durability policy. Only a
// disk-backed partition under DurabilityAckOnFsync has anything to wait
// for — a group-commit fsync covering end; everywhere else the append was
// the ack. A partition whose line broke since StartAppend (a segment or fsync
// error, CloseFile, a simulated crash) answers with its sticky error unless
// the watermark had already covered end, exactly as an AppendBatch caught
// mid-wait does.
func (p *Partition) AwaitDurable(end int64) error {
	if p.dur != DurabilityAckOnFsync || p.synced.Load() >= end {
		return nil
	}
	p.met.Waiters.Add(1)
	defer p.met.Waiters.Add(-1)
	return p.synced.Wait(end, nil)
}

// FailNextAppends arms a transient fault: the next n Append/AppendBatch
// calls fail before touching memory or disk, then the partition recovers
// on its own — unlike a real segment failure the error is NOT sticky.
// Chaos-test hook for proving the batch ack names exactly what was rejected.
func (p *Partition) FailNextAppends(n int) {
	p.mu.Lock()
	p.failAppends = n
	p.mu.Unlock()
}

// Err reports a sticky disk-backing failure, if any.
func (p *Partition) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fileErr
}

// headLocked returns the offset the next record will receive. Requires mu.
func (p *Partition) headLocked() int64 {
	return p.base + int64(len(p.store)-p.lo)
}

// reserveLocked makes room for n more records without letting the backing
// array track the log's length: once the released prefix is at least as
// large as the resident window, the window slides down over it — a copy no
// larger than the slots it frees, so appends stay amortized O(1). Only a
// window that really grows reaches append's reallocation. Requires mu.
func (p *Partition) reserveLocked(n int) {
	live := len(p.store) - p.lo
	if len(p.store)+n <= cap(p.store) || p.lo < live {
		return
	}
	copy(p.store, p.store[p.lo:])
	clear(p.store[live:])
	p.store, p.lo = p.store[:live], 0
}

// Next returns the offset the next Append will receive.
func (p *Partition) Next() int64 { return p.head.Load() }

// Base returns the horizon: the lowest offset Read still answers.
func (p *Partition) Base() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.base
}

// Read returns up to max records starting at offset, without blocking. It
// returns ErrCompacted when offset precedes the retention horizon. Reading
// at the head returns an empty slice.
func (p *Partition) Read(offset int64, max int) ([]Record, error) {
	if max <= 0 {
		max = 1024
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n, err := p.readableLocked(offset, max)
	if n == 0 {
		return nil, err
	}
	return p.fillLocked(make([]Record, n), offset), nil
}

// readableLocked returns how many records, up to limit, a read at offset
// gets: ErrCompacted below the horizon, 0 at or past the head. Requires mu.
func (p *Partition) readableLocked(offset int64, limit int) (int, error) {
	if offset < p.base {
		return 0, fmt.Errorf("%w: want %d, base %d", ErrCompacted, offset, p.base)
	}
	return int(max(0, min(p.headLocked()-offset, int64(limit)))), nil
}

// fillLocked sets buf to the records from offset on, one per element, and
// returns it; readableLocked sized it. Requires mu.
func (p *Partition) fillLocked(buf []Record, offset int64) []Record {
	window := p.store[p.lo+int(offset-p.base):]
	for i := range buf {
		buf[i] = Record{Offset: offset + int64(i), Data: window[i]}
	}
	return buf
}

// readLinger is ReadBlocking's batching window (Kafka's fetch.min.wait): the
// first record after an empty read is delivered readLinger later, with the
// burst behind it, as one block — and after the appenders' acks went out.
// A policy, not a poll: once per idle-to-busy edge, never while idle or busy
// (DESIGN §18 has what the ledger reads without it).
const readLinger = 200 * time.Microsecond

// ReadBlocking is Read that waits at the head: the one waited read, in
// which every consumer parks. It fills the
// caller's non-empty buf from its start, up to len(buf) records, and
// returns the filled prefix, so a consumer reading block after block into
// one buffer allocates nothing per read. The records' Data alias the log's
// resident window: a caller that keeps buf between reads clears what it
// read, or it pins those buffers. It answers ErrClosed once the partition
// is closed and every retained record past offset was delivered, and an
// empty read when cancel fires first.
func (p *Partition) ReadBlocking(offset int64, buf []Record, cancel <-chan struct{}) ([]Record, error) {
	for {
		p.mu.Lock()
		n, err := p.readableLocked(offset, len(buf))
		if n > 0 {
			p.fillLocked(buf[:n], offset)
		}
		p.mu.Unlock()
		if err != nil || n > 0 {
			return buf[:n], err
		}
		if err := p.head.Wait(offset+1, cancel); err == ErrCanceled {
			return nil, nil
		} else if err != nil {
			return nil, err
		}
		<-time.After(readLinger)
	}
}

// Truncate advances the horizon: records with offsets below before are gone
// (retention, and a flush commit letting go of what no replay reads) — from
// memory, and from a disk-backed partition every segment file lying wholly
// below the horizon (truncateDisk). Truncating past the head drops
// everything retained.
func (p *Partition) Truncate(before int64) {
	if p.path != "" {
		p.truncateDisk(before)
		return
	}
	p.mu.Lock()
	p.truncateLocked(before)
	p.mu.Unlock()
}

// truncateLocked moves the horizon up to before (clamped to the head) and
// drops the resident records below it. Requires mu.
func (p *Partition) truncateLocked(before int64) {
	if head := p.headLocked(); before > head {
		before = head
	}
	if before <= p.base {
		return
	}
	window := len(p.store) - p.lo
	hi := p.lo + int(before-p.base)
	for _, rec := range p.store[p.lo:hi] {
		p.bytes -= int64(len(rec))
	}
	clear(p.store[p.lo:hi])
	p.lo, p.base = hi, before
	// The window only grows between truncations, so `window` is what the
	// array had to hold since the last one. An array many times that size is
	// left over from a burst (a parked flusher's backlog): give it back. A
	// steady fill-and-truncate cycle keeps the array within 4x its largest
	// window (append doubles, reserveLocked reuses), so there this never
	// fires.
	if cap(p.store) > 8*window+minWindowCap {
		p.store, p.lo = append(make([][]byte, 0, 2*window), p.store[p.lo:]...), 0
	}
}

// minWindowCap is the backing-array size truncateLocked does not bother to
// shrink.
const minWindowCap = 1024

// Seal permanently rejects further appends with ErrSealed while keeping
// reads and replay available. Idempotent.
func (p *Partition) Seal() {
	p.mu.Lock()
	p.sealed = true
	p.mu.Unlock()
}

// Close marks the partition closed: blocked readers wake and further
// appends fail, both with ErrClosed. Idempotent.
func (p *Partition) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.head.Fail(ErrClosed)
}

// Len returns the number of records resident in memory.
func (p *Partition) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.store) - p.lo
}

// Bytes returns the resident payload bytes.
func (p *Partition) Bytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bytes
}

// Log is a topic: a set of partitions, growable while live (elastic
// scale-out adds one partition per new indexing server).
type Log struct {
	mu    sync.RWMutex
	parts []*Partition
	// dir/cfg remember how the log was opened so AddPartition can build
	// new partitions the same way; dir empty means in-memory.
	dir string
	cfg Config
}

// NewLog creates a log with n partitions (minimum 1).
func NewLog(n int) *Log {
	if n < 1 {
		n = 1
	}
	l := &Log{parts: make([]*Partition, n)}
	for i := range l.parts {
		l.parts[i] = NewPartition()
	}
	return l
}

// Partitions returns the partition count.
func (l *Log) Partitions() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.parts)
}

// Partition returns partition i.
func (l *Log) Partition(i int) *Partition {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.parts[i]
}

// AddPartition appends one partition to the log — disk-backed next to its
// siblings when the log was opened from a directory, in-memory otherwise.
// Returns the new partition and its index.
func (l *Log) AddPartition() (*Partition, int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := len(l.parts)
	var p *Partition
	if l.dir != "" {
		var err error
		p, err = OpenPartition(filepath.Join(l.dir, fmt.Sprintf("p%d.wal", i)), l.cfg)
		if err != nil {
			return nil, 0, err
		}
	} else {
		p = NewPartition()
	}
	l.parts = append(l.parts, p)
	return p, i, nil
}

// Close closes every partition.
func (l *Log) Close() {
	l.mu.RLock()
	defer l.mu.RUnlock()
	for _, p := range l.parts {
		p.Close()
	}
}
