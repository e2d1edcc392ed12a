package baseline

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"waterwheel/internal/dfs"
	"waterwheel/internal/model"
)

// LSMConfig tunes the HBase-like LSM store.
type LSMConfig struct {
	// MemBytes is the memtable flush threshold (default 16 MB).
	MemBytes int64
	// MaxRunsPerLevel triggers size-tiered compaction (default 4).
	MaxRunsPerLevel int
	// SparseEvery is the sparse-index stride in tuples (default 64).
	SparseEvery int
	// Node is the cluster node issuing file-system I/O.
	Node int
}

func (c *LSMConfig) fill() {
	if c.MemBytes <= 0 {
		c.MemBytes = 16 << 20
	}
	if c.MaxRunsPerLevel <= 0 {
		c.MaxRunsPerLevel = 4
	}
	if c.SparseEvery <= 0 {
		c.SparseEvery = 64
	}
}

// run is one immutable sorted run on the file system.
type run struct {
	path           string
	count          int
	minKey, maxKey model.Key
	size           int64
}

// LSM is an LSM-tree store in the mould of HBase: a concurrent-B+-tree
// memtable (HBase's sorted memstore), key-sorted immutable runs, and
// size-tiered compaction that merges fresh data into historical data —
// the global-merge cost Waterwheel's partitioning avoids. Key range
// queries are indexed; time constraints are applied by post-filtering.
type LSM struct {
	cfg LSMConfig
	fs  *dfs.FS

	mu       sync.Mutex
	mem      *ConcurrentTree
	memBytes int64
	levels   [][]run
	seq      int
}

var _ Store = (*LSM)(nil)

// NewLSM creates an LSM store over the given file system.
func NewLSM(cfg LSMConfig, fs *dfs.FS) *LSM {
	cfg.fill()
	return &LSM{cfg: cfg, fs: fs, mem: NewConcurrentTree(0, 0)}
}

// Insert adds a tuple to the memtable, flushing (and possibly compacting)
// at the threshold.
func (l *LSM) Insert(t model.Tuple) {
	l.mem.Insert(t)
	l.mu.Lock()
	l.memBytes += int64(t.Size())
	full := l.memBytes >= l.cfg.MemBytes
	l.mu.Unlock()
	if full {
		l.Flush()
	}
}

// Flush writes the memtable as a new L0 run and compacts as needed.
func (l *LSM) Flush() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.mem.Len() == 0 {
		return
	}
	var tuples []model.Tuple
	l.mem.Range(model.FullKeyRange(), model.FullTimeRange(), nil, func(t *model.Tuple) bool {
		cp := *t
		cp.Payload = append([]byte(nil), t.Payload...)
		tuples = append(tuples, cp)
		return true
	})
	l.mem = NewConcurrentTree(0, 0)
	l.memBytes = 0
	r := l.writeRun(tuples)
	if len(l.levels) == 0 {
		l.levels = append(l.levels, nil)
	}
	l.levels[0] = append(l.levels[0], r)
	l.compactLocked()
}

// writeRun persists a key-sorted run.
//
// Layout: [tuples][sparse index: {key,offset}…][footer: idxOff(8)
// idxN(4) count(4) minKey(8) maxKey(8)].
func (l *LSM) writeRun(sorted []model.Tuple) run {
	var data []byte
	type idxEntry struct {
		key model.Key
		off int64
	}
	var idx []idxEntry
	for i := range sorted {
		if i%l.cfg.SparseEvery == 0 {
			idx = append(idx, idxEntry{key: sorted[i].Key, off: int64(len(data))})
		}
		data = model.AppendTuple(data, &sorted[i])
	}
	idxOff := int64(len(data))
	var tmp [8]byte
	for _, e := range idx {
		binary.BigEndian.PutUint64(tmp[:], uint64(e.key))
		data = append(data, tmp[:]...)
		binary.BigEndian.PutUint64(tmp[:], uint64(e.off))
		data = append(data, tmp[:]...)
	}
	binary.BigEndian.PutUint64(tmp[:], uint64(idxOff))
	data = append(data, tmp[:]...)
	var tmp4 [4]byte
	binary.BigEndian.PutUint32(tmp4[:], uint32(len(idx)))
	data = append(data, tmp4[:]...)
	binary.BigEndian.PutUint32(tmp4[:], uint32(len(sorted)))
	data = append(data, tmp4[:]...)
	binary.BigEndian.PutUint64(tmp[:], uint64(sorted[0].Key))
	data = append(data, tmp[:]...)
	binary.BigEndian.PutUint64(tmp[:], uint64(sorted[len(sorted)-1].Key))
	data = append(data, tmp[:]...)

	l.seq++
	path := fmt.Sprintf("lsm/run%d", l.seq)
	if err := l.fs.Write(path, data); err != nil {
		panic(fmt.Sprintf("baseline: run write: %v", err))
	}
	return run{
		path:   path,
		count:  len(sorted),
		minKey: sorted[0].Key,
		maxKey: sorted[len(sorted)-1].Key,
		size:   int64(len(data)),
	}
}

// compactLocked merges any level exceeding MaxRunsPerLevel into the next
// level — the data-merging overhead the paper identifies as the LSM
// insertion bottleneck. Runs synchronously, stalling inserts like a
// write-stall.
func (l *LSM) compactLocked() {
	for lvl := 0; lvl < len(l.levels); lvl++ {
		if len(l.levels[lvl]) <= l.cfg.MaxRunsPerLevel {
			continue
		}
		var all []model.Tuple
		for _, r := range l.levels[lvl] {
			tuples, _, err := l.readRunRange(r, model.FullKeyRange())
			if err != nil {
				panic(fmt.Sprintf("baseline: compaction read: %v", err))
			}
			all = append(all, tuples...)
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].Key != all[j].Key {
				return all[i].Key < all[j].Key
			}
			return all[i].Time < all[j].Time
		})
		merged := l.writeRun(all)
		for _, r := range l.levels[lvl] {
			l.fs.Delete(r.path)
		}
		l.levels[lvl] = nil
		if lvl+1 >= len(l.levels) {
			l.levels = append(l.levels, nil)
		}
		l.levels[lvl+1] = append(l.levels[lvl+1], merged)
	}
}

// readRunRange reads the tuples of a run within a key range using the
// sparse index: one footer+index read, then one data-extent read. The
// second return value is the number of data bytes fetched and decoded.
func (l *LSM) readRunRange(r run, kr model.KeyRange) ([]model.Tuple, int64, error) {
	size, err := l.fs.Size(r.path)
	if err != nil {
		return nil, 0, err
	}
	const footer = 8 + 4 + 4 + 8 + 8
	fbuf, _, err := l.fs.ReadAt(r.path, size-footer, footer, l.cfg.Node)
	if err != nil {
		return nil, 0, err
	}
	idxOff := int64(binary.BigEndian.Uint64(fbuf[0:8]))
	idxN := int(binary.BigEndian.Uint32(fbuf[8:12]))
	ibuf, _, err := l.fs.ReadAt(r.path, idxOff, int64(idxN)*16, l.cfg.Node)
	if err != nil {
		return nil, 0, err
	}
	keys := make([]model.Key, idxN)
	offs := make([]int64, idxN)
	for i := 0; i < idxN; i++ {
		keys[i] = model.Key(binary.BigEndian.Uint64(ibuf[i*16:]))
		offs[i] = int64(binary.BigEndian.Uint64(ibuf[i*16+8:]))
	}
	// Start at the last index entry with key <= kr.Lo; end at the first
	// entry with key > kr.Hi.
	start := sort.Search(idxN, func(i int) bool { return keys[i] > kr.Lo }) - 1
	if start < 0 {
		start = 0
	}
	end := sort.Search(idxN, func(i int) bool { return keys[i] > kr.Hi })
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
	dbuf, _, err := l.fs.ReadAt(r.path, startOff, endOff-startOff, l.cfg.Node)
	if err != nil {
		return nil, 0, err
	}
	read := endOff - startOff
	var out []model.Tuple
	for len(dbuf) > 0 {
		t, n, err := model.DecodeTuple(dbuf)
		if err != nil {
			return nil, 0, err
		}
		dbuf = dbuf[n:]
		if t.Key > kr.Hi {
			break
		}
		if t.Key >= kr.Lo {
			t.Payload = append([]byte(nil), t.Payload...)
			out = append(out, t)
		}
	}
	return out, read, nil
}

// Query scans the memtable and every run overlapping the key range. The
// time constraint is applied by post-filtering — the store has no
// temporal index (paper Table I).
func (l *LSM) Query(q model.Query) (*model.Result, error) {
	res := &model.Result{QueryID: q.ID}
	l.mem.Range(q.Keys, q.Times, q.Filter, func(t *model.Tuple) bool {
		cp := *t
		cp.Payload = append([]byte(nil), t.Payload...)
		res.Tuples = append(res.Tuples, cp)
		return true
	})
	l.mu.Lock()
	var candidates []run
	for _, lvl := range l.levels {
		for _, r := range lvl {
			if r.minKey <= q.Keys.Hi && r.maxKey >= q.Keys.Lo {
				candidates = append(candidates, r)
			}
		}
	}
	l.mu.Unlock()
	for _, r := range candidates {
		tuples, bytes, err := l.readRunRange(r, q.Keys)
		if err != nil {
			return nil, err
		}
		res.BytesRead += bytes
		for i := range tuples {
			t := &tuples[i]
			if q.Times.Contains(t.Time) && q.Filter.Matches(t) {
				res.Tuples = append(res.Tuples, *t)
			}
		}
	}
	res.SortTuples()
	return res, nil
}

// Close implements Store.
func (l *LSM) Close() {}
