package baseline

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"waterwheel/internal/dfs"
	"waterwheel/internal/model"
)

// TSConfig tunes the Druid-like time-segment store.
type TSConfig struct {
	// SegmentBytes seals the in-memory segment at this size (default
	// 16 MB).
	SegmentBytes int64
	// SparseEvery is the time-index stride in tuples (default 64).
	SparseEvery int
	// Node is the cluster node issuing file-system I/O.
	Node int
}

func (c *TSConfig) fill() {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 16 << 20
	}
	if c.SparseEvery <= 0 {
		c.SparseEvery = 64
	}
}

// segment is one sealed, time-sorted segment on the file system.
type segment struct {
	path       string
	count      int
	minT, maxT model.Timestamp
	size       int64
}

// TS is a time-series store in the mould of Druid: data is partitioned
// into time segments, each time-indexed, so temporal constraints prune
// well — but there is no key-range index, so a key constraint is checked
// by reading every tuple in the time range (paper Table I).
type TS struct {
	cfg TSConfig
	fs  *dfs.FS

	mu       sync.RWMutex
	cur      []model.Tuple
	curIdx   map[model.Key][]int32 // Druid-style inverted index on the key dimension
	curDict  map[model.Key]uint32  // dimension-value dictionary (Druid's string interning)
	curTime  map[int64][]int32     // secondary inverted index on the time-minute dimension
	curBytes int64
	segments []segment
	seq      int
}

var _ Store = (*TS)(nil)

// NewTS creates a time-segment store over the given file system.
func NewTS(cfg TSConfig, fs *dfs.FS) *TS {
	cfg.fill()
	return &TS{
		cfg: cfg, fs: fs,
		curIdx:  make(map[model.Key][]int32),
		curDict: make(map[model.Key]uint32),
		curTime: make(map[int64][]int32),
	}
}

// Insert appends to the live segment, sealing at the size threshold. Like
// Druid, ingestion maintains per-segment dimension structures — a value
// dictionary plus inverted indexes on the key and time-minute dimensions.
// They answer equality lookups, not range scans (paper Table I), and are
// the dominant per-tuple ingestion cost.
func (t *TS) Insert(tp model.Tuple) {
	t.mu.Lock()
	tp.Payload = append([]byte(nil), tp.Payload...)
	row := int32(len(t.cur))
	if _, ok := t.curDict[tp.Key]; !ok {
		t.curDict[tp.Key] = uint32(len(t.curDict))
	}
	t.curIdx[tp.Key] = append(t.curIdx[tp.Key], row)
	minute := int64(tp.Time) / 60_000
	t.curTime[minute] = append(t.curTime[minute], row)
	t.cur = append(t.cur, tp)
	t.curBytes += int64(tp.Size())
	seal := t.curBytes >= t.cfg.SegmentBytes
	t.mu.Unlock()
	if seal {
		t.Flush()
	}
}

// Flush seals the live segment to the file system.
func (t *TS) Flush() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.cur) == 0 {
		return
	}
	tuples := t.cur
	t.cur = nil
	t.curIdx = make(map[model.Key][]int32)
	t.curDict = make(map[model.Key]uint32)
	t.curTime = make(map[int64][]int32)
	t.curBytes = 0
	sort.Slice(tuples, func(i, j int) bool { return tuples[i].Time < tuples[j].Time })

	// Layout: [tuples, time-sorted][sparse index {time,offset}…]
	// [footer: idxOff(8) idxN(4) count(4) minT(8) maxT(8)].
	var data []byte
	type idxEntry struct {
		ts  model.Timestamp
		off int64
	}
	var idx []idxEntry
	for i := range tuples {
		if i%t.cfg.SparseEvery == 0 {
			idx = append(idx, idxEntry{ts: tuples[i].Time, off: int64(len(data))})
		}
		data = model.AppendTuple(data, &tuples[i])
	}
	idxOff := int64(len(data))
	var tmp [8]byte
	for _, e := range idx {
		binary.BigEndian.PutUint64(tmp[:], uint64(e.ts))
		data = append(data, tmp[:]...)
		binary.BigEndian.PutUint64(tmp[:], uint64(e.off))
		data = append(data, tmp[:]...)
	}
	binary.BigEndian.PutUint64(tmp[:], uint64(idxOff))
	data = append(data, tmp[:]...)
	var tmp4 [4]byte
	binary.BigEndian.PutUint32(tmp4[:], uint32(len(idx)))
	data = append(data, tmp4[:]...)
	binary.BigEndian.PutUint32(tmp4[:], uint32(len(tuples)))
	data = append(data, tmp4[:]...)
	binary.BigEndian.PutUint64(tmp[:], uint64(tuples[0].Time))
	data = append(data, tmp[:]...)
	binary.BigEndian.PutUint64(tmp[:], uint64(tuples[len(tuples)-1].Time))
	data = append(data, tmp[:]...)

	t.seq++
	path := fmt.Sprintf("ts/seg%d", t.seq)
	if err := t.fs.Write(path, data); err != nil {
		panic(fmt.Sprintf("baseline: segment write: %v", err))
	}
	t.segments = append(t.segments, segment{
		path:  path,
		count: len(tuples),
		minT:  tuples[0].Time,
		maxT:  tuples[len(tuples)-1].Time,
		size:  int64(len(data)),
	})
}

// readSegmentRange reads the tuples of a segment within a time range. The
// second return value is the number of data bytes fetched and decoded.
func (t *TS) readSegmentRange(s segment, tr model.TimeRange) ([]model.Tuple, int64, error) {
	size, err := t.fs.Size(s.path)
	if err != nil {
		return nil, 0, err
	}
	const footer = 8 + 4 + 4 + 8 + 8
	fbuf, _, err := t.fs.ReadAt(s.path, size-footer, footer, t.cfg.Node)
	if err != nil {
		return nil, 0, err
	}
	idxOff := int64(binary.BigEndian.Uint64(fbuf[0:8]))
	idxN := int(binary.BigEndian.Uint32(fbuf[8:12]))
	ibuf, _, err := t.fs.ReadAt(s.path, idxOff, int64(idxN)*16, t.cfg.Node)
	if err != nil {
		return nil, 0, err
	}
	times := make([]model.Timestamp, idxN)
	offs := make([]int64, idxN)
	for i := 0; i < idxN; i++ {
		times[i] = model.Timestamp(binary.BigEndian.Uint64(ibuf[i*16:]))
		offs[i] = int64(binary.BigEndian.Uint64(ibuf[i*16+8:]))
	}
	start := sort.Search(idxN, func(i int) bool { return times[i] > tr.Lo }) - 1
	if start < 0 {
		start = 0
	}
	end := sort.Search(idxN, func(i int) bool { return times[i] > tr.Hi })
	var endOff int64
	if end >= idxN {
		endOff = idxOff
	} else {
		endOff = offs[end]
	}
	startOff := offs[start]
	if startOff >= endOff {
		return nil, 0, nil
	}
	dbuf, _, err := t.fs.ReadAt(s.path, startOff, endOff-startOff, t.cfg.Node)
	if err != nil {
		return nil, 0, err
	}
	read := endOff - startOff
	var out []model.Tuple
	for len(dbuf) > 0 {
		tp, n, err := model.DecodeTuple(dbuf)
		if err != nil {
			return nil, 0, err
		}
		dbuf = dbuf[n:]
		if tp.Time > tr.Hi {
			break
		}
		if tp.Time >= tr.Lo {
			tp.Payload = append([]byte(nil), tp.Payload...)
			out = append(out, tp)
		}
	}
	return out, read, nil
}

// Query prunes segments by time, reads the matching time extents, and
// post-filters by key — the store has no key-range index.
func (t *TS) Query(q model.Query) (*model.Result, error) {
	res := &model.Result{QueryID: q.ID}
	t.mu.RLock()
	for i := range t.cur {
		tp := &t.cur[i]
		if q.Times.Contains(tp.Time) && q.Keys.Contains(tp.Key) && q.Filter.Matches(tp) {
			cp := *tp
			cp.Payload = append([]byte(nil), tp.Payload...)
			res.Tuples = append(res.Tuples, cp)
		}
	}
	candidates := make([]segment, 0, len(t.segments))
	for _, s := range t.segments {
		if s.minT <= q.Times.Hi && s.maxT >= q.Times.Lo {
			candidates = append(candidates, s)
		}
	}
	t.mu.RUnlock()
	for _, s := range candidates {
		tuples, bytes, err := t.readSegmentRange(s, q.Times)
		if err != nil {
			return nil, err
		}
		res.BytesRead += bytes
		for i := range tuples {
			tp := &tuples[i]
			if q.Keys.Contains(tp.Key) && q.Filter.Matches(tp) {
				res.Tuples = append(res.Tuples, *tp)
			}
		}
	}
	res.SortTuples()
	return res, nil
}

// Close implements Store.
func (t *TS) Close() {}
