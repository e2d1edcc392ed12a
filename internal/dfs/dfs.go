// Package dfs simulates the distributed file system Waterwheel stores its
// immutable data chunks in. It stands in for HDFS and models the properties
// the paper's experiments depend on:
//
//   - N datanodes with R-way replication on distinct nodes, spread evenly
//     and derived from the file's name (HDFS default 3, §IV-C);
//   - replica locality: readers co-located with a replica avoid the remote
//     transfer cost, which is what LADA's chunk locality exploits;
//   - a per-access open delay of 2–50 ms regardless of read size (§VI-B),
//     which dominates small reads and flattens the chunk-size curve;
//   - node failure injection for fault-tolerance tests.
//
// Time is injected through a Sleeper so tests can run with virtual time.
package dfs

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"waterwheel/internal/durable"
)

// Errors returned by the file system.
var (
	ErrNotFound    = errors.New("dfs: file not found")
	ErrExists      = errors.New("dfs: file already exists")
	ErrUnavailable = errors.New("dfs: no live replica")
	ErrBadRange    = errors.New("dfs: read range out of bounds")
	ErrNoNodes     = errors.New("dfs: no live datanodes for placement")
	// ErrSizeMismatch says a backing file's length is not the one its owner
	// recorded for it (cluster.Open checks every registered chunk).
	ErrSizeMismatch = errors.New("dfs: backing file size does not match the recorded size")
	// ErrInjected marks a transient failure produced by the fault-injection
	// hooks (SetWriteFailRate and friends) — the chaos-testing analogue of a
	// flaky datanode or a timed-out pipeline.
	ErrInjected = errors.New("dfs: injected fault")
)

// LatencyModel describes the simulated I/O costs.
type LatencyModel struct {
	// OpenMin/OpenMax bound the uniform per-access delay charged on every
	// read regardless of size (HDFS open cost, paper §VI-B: 2–50 ms).
	OpenMin, OpenMax time.Duration
	// LocalBytesPerSec is the sequential read bandwidth when the reader is
	// co-located with a replica. Zero means infinite.
	LocalBytesPerSec int64
	// RemoteBytesPerSec is the bandwidth when the chunk must cross the
	// network. Zero means infinite.
	RemoteBytesPerSec int64
	// WriteBytesPerSec is the pipeline write bandwidth. Zero means
	// infinite.
	WriteBytesPerSec int64
}

// Config configures the simulated file system.
type Config struct {
	// Nodes is the number of datanodes (minimum 1).
	Nodes int
	// Replication is the replica count per file (clamped to [1, Nodes]).
	Replication int
	// Latency is the I/O cost model; the zero value charges nothing.
	Latency LatencyModel
	// Seed makes replica placement (a function of Seed, the file's name and
	// the live nodes: see place) and open-delay jitter deterministic.
	Seed int64
	// FaultSeed seeds the fault-injection RNG. It is deliberately separate
	// from Seed so enabling error rates never perturbs replica placement —
	// a chaos run and its fault-free control see identical layouts.
	FaultSeed int64
	// Sleep is called to charge simulated time; nil means time.Sleep.
	Sleep func(time.Duration)
	// Dir, when non-empty, keeps file contents in the local filesystem
	// under this directory and nowhere else (one physical copy, read back
	// on every ReadAt; replica placement stays simulated). The directory is
	// the only record of what is stored: Open serves every file it finds
	// there, so files survive process restarts; which of them should not
	// have is the caller's to say (cluster.Open deletes what the metadata
	// registry does not name).
	Dir string
	// ObserveRead, when set, receives the simulated latency charged to
	// each chunk read (open delay + transfer) and whether the read was
	// served by a co-located replica — the telemetry hook for injected
	// I/O cost. Must be cheap; called on the read path.
	ObserveRead func(latency time.Duration, local bool)
	// Files performs every create, fsync, rename and unlink of the backing
	// files (nil: the plain OS), so a test can watch their order against a
	// checkpoint's other files, fail one, hold a write at the point its name
	// appears, or crash the host under them.
	Files *durable.Files
}

// Metrics counts file-system activity.
type Metrics struct {
	Reads       atomic.Int64
	LocalReads  atomic.Int64
	RemoteReads atomic.Int64
	BytesRead   atomic.Int64
	Writes      atomic.Int64
	BytesWrite  atomic.Int64
	// InjectedWriteFailures / InjectedReadFailures count operations failed
	// by the fault-injection hooks (ErrInjected).
	InjectedWriteFailures atomic.Int64
	InjectedReadFailures  atomic.Int64
}

// file is one entry of the file table. The bytes are in data in
// memory-only mode and in the backing file (see disk.go) when Config.Dir is
// set, where data stays nil: the heap holds size and placement only.
type file struct {
	data     []byte
	size     int64
	replicas []int
}

// FS is a simulated distributed file system.
type FS struct {
	cfg   Config
	sleep func(time.Duration)

	mu    sync.RWMutex
	files map[string]*file
	// busy holds the names whose bytes are on their way in (Write) or out
	// (Delete), outside mu: taken for a writer, absent for a reader.
	busy  map[string]struct{}
	alive []bool
	used  []int64 // bytes per node
	// unsynced lists the Dir-backed files written since the last Sync.
	unsynced []string
	syncMu   sync.Mutex

	// Open-delay jitter, under its own lock: a read never takes mu for
	// writing.
	jitterMu sync.Mutex
	jitter   *rand.Rand

	// Fault injection (chaos testing): transient error rates and one-shot
	// failure budgets, under their own lock so read-path injection does not
	// upgrade mu and the fault RNG stream stays independent of placement.
	faultMu        sync.Mutex
	faultRng       *rand.Rand
	writeFailRate  float64
	readFailRate   float64
	failNextWrites int
	failNextReads  int

	m Metrics
}

// New creates a file system, panicking on backing-directory errors; use
// Open to handle them.
func New(cfg Config) *FS {
	fs, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return fs
}

// Open creates a file system. With Config.Dir set, the files found in the
// backing directory are served (their bytes stay on disk).
func Open(cfg Config) (*FS, error) {
	if cfg.Nodes < 1 {
		cfg.Nodes = 1
	}
	if cfg.Replication < 1 {
		cfg.Replication = 1
	}
	if cfg.Replication > cfg.Nodes {
		cfg.Replication = cfg.Nodes
	}
	sleep := cfg.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	fs := &FS{
		cfg:      cfg,
		sleep:    sleep,
		files:    make(map[string]*file),
		busy:     make(map[string]struct{}),
		alive:    make([]bool, cfg.Nodes),
		used:     make([]int64, cfg.Nodes),
		jitter:   rand.New(rand.NewSource(cfg.Seed)),
		faultRng: rand.New(rand.NewSource(cfg.FaultSeed)),
	}
	for i := range fs.alive {
		fs.alive[i] = true
	}
	if cfg.Dir != "" {
		if err := fs.loadDir(); err != nil {
			return nil, err
		}
	}
	return fs, nil
}

// Metrics returns the activity counters.
func (fs *FS) Metrics() *Metrics { return &fs.m }

// openDelay draws a per-access delay from the model.
func (fs *FS) openDelay() time.Duration {
	lm := fs.cfg.Latency
	if lm.OpenMax <= lm.OpenMin {
		return lm.OpenMin
	}
	fs.jitterMu.Lock()
	d := lm.OpenMin + time.Duration(fs.jitter.Int63n(int64(lm.OpenMax-lm.OpenMin)))
	fs.jitterMu.Unlock()
	return d
}

func transfer(n int64, bytesPerSec int64) time.Duration {
	if bytesPerSec <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / float64(bytesPerSec) * float64(time.Second))
}

// --- Fault injection (chaos testing) ---

// SetWriteFailRate makes each subsequent Write fail with probability p
// (ErrInjected), before any state changes. p <= 0 disables the hook.
func (fs *FS) SetWriteFailRate(p float64) {
	fs.faultMu.Lock()
	fs.writeFailRate = p
	fs.faultMu.Unlock()
}

// SetReadFailRate makes each subsequent ReadAt fail with probability p
// (ErrInjected), before any data is served. p <= 0 disables the hook.
func (fs *FS) SetReadFailRate(p float64) {
	fs.faultMu.Lock()
	fs.readFailRate = p
	fs.faultMu.Unlock()
}

// FailNextWrites forces the next n Writes to fail with ErrInjected,
// independent of the probabilistic rate — deterministic outage windows.
func (fs *FS) FailNextWrites(n int) {
	fs.faultMu.Lock()
	fs.failNextWrites = n
	fs.faultMu.Unlock()
}

// FailNextReads forces the next n ReadAt calls to fail with ErrInjected.
func (fs *FS) FailNextReads(n int) {
	fs.faultMu.Lock()
	fs.failNextReads = n
	fs.faultMu.Unlock()
}

// ClearFaults resets every injected error rate and one-shot failure budget
// (node liveness is separate; see ReviveNode).
func (fs *FS) ClearFaults() {
	fs.faultMu.Lock()
	fs.writeFailRate, fs.readFailRate = 0, 0
	fs.failNextWrites, fs.failNextReads = 0, 0
	fs.faultMu.Unlock()
}

// injectWriteFault reports whether this Write should fail.
func (fs *FS) injectWriteFault() bool {
	fs.faultMu.Lock()
	defer fs.faultMu.Unlock()
	if fs.failNextWrites > 0 {
		fs.failNextWrites--
		return true
	}
	return fs.writeFailRate > 0 && fs.faultRng.Float64() < fs.writeFailRate
}

// injectReadFault reports whether this ReadAt should fail.
func (fs *FS) injectReadFault() bool {
	fs.faultMu.Lock()
	defer fs.faultMu.Unlock()
	if fs.failNextReads > 0 {
		fs.failNextReads--
		return true
	}
	return fs.readFailRate > 0 && fs.faultRng.Float64() < fs.readFailRate
}

// place picks a file's replicas: r distinct nodes among the live ones, by
// rendezvous hashing — every live node scores a hash of (seed, name, node)
// and the r highest win. It is a pure function, so both residencies place
// alike, Seed makes a layout repeatable, and a reopen (every node alive)
// recomputes what Write chose; a file written while a node was down reads,
// after a restart, the placement re-replication would have moved it to.
// Fewer than r live nodes yield them all; none, nil.
func place(seed int64, name string, alive []bool, r int) []int {
	h := uint64(seed) ^ 14695981039346656037 // FNV-1a over the name
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	score := func(node int) uint64 {
		// splitmix64's finalizer: consecutive nodes, unrelated scores.
		x := h + uint64(node+1)*0x9E3779B97F4A7C15
		x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
		x = (x ^ x>>27) * 0x94D049BB133111EB
		return x ^ x>>31
	}
	var live []int
	for n, a := range alive {
		if a {
			live = append(live, n)
		}
	}
	slices.SortFunc(live, func(a, b int) int {
		return cmp.Or(cmp.Compare(score(b), score(a)), cmp.Compare(a, b))
	})
	return live[:min(r, len(live))]
}

// publishLocked enters a file whose bytes are in place into the table.
// Caller holds fs.mu.
func (fs *FS) publishLocked(name string, f *file) {
	fs.files[name] = f
	for _, n := range f.replicas {
		fs.used[n] += f.size
	}
}

// Write stores a file on Replication distinct live nodes (see place). The
// data is copied — into memory, or with Config.Dir into the backing file
// only, outside the file-table lock: the name is reserved, the bytes go to a
// temporary file that is renamed into place, and only then does the entry
// appear, so a reader never sees a name before its bytes and a name in the
// directory means a write that finished. Write does not fsync (see Sync).
// Writing a name that exists, or is being written, fails; a failed write
// leaves nothing behind and may be retried.
func (fs *FS) Write(name string, data []byte) error {
	if fs.injectWriteFault() {
		fs.m.InjectedWriteFailures.Add(1)
		return fmt.Errorf("%w: write %s", ErrInjected, name)
	}
	f := &file{size: int64(len(data))}
	fs.mu.Lock()
	_, exists := fs.files[name]
	if _, busy := fs.busy[name]; exists || busy {
		fs.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrExists, name)
	}
	if f.replicas = place(fs.cfg.Seed, name, fs.alive, fs.cfg.Replication); len(f.replicas) == 0 {
		fs.mu.Unlock()
		return ErrNoNodes
	}
	fs.busy[name] = struct{}{}
	fs.mu.Unlock()

	var err error
	if fs.cfg.Dir == "" {
		f.data = append([]byte(nil), data...)
	} else {
		err = fs.writeBacking(name, data)
	}

	fs.mu.Lock()
	delete(fs.busy, name)
	if err == nil {
		fs.publishLocked(name, f)
		if fs.cfg.Dir != "" {
			fs.unsynced = append(fs.unsynced, name)
		}
	}
	fs.mu.Unlock()
	if err != nil {
		return err
	}

	fs.m.Writes.Add(1)
	fs.m.BytesWrite.Add(int64(len(data)))
	// A write pays the per-access open delay (NameNode create round trip)
	// plus the pipeline transfer.
	fs.sleep(fs.openDelay() + transfer(int64(len(data)), fs.cfg.Latency.WriteBytesPerSec))
	return nil
}

// ReadInfo describes how a read was served.
type ReadInfo struct {
	// Local reports whether the reading node held a replica.
	Local bool
	// Node is the replica that served the read.
	Node int
	// Latency is the simulated time charged.
	Latency time.Duration
}

// ReadAt reads length bytes at offset from the named file, as issued by
// fromNode (-1 for an external client). Locality against fromNode decides
// the transfer cost. length < 0 reads to the end. With Config.Dir the bytes
// come from the backing file, read outside the file-table lock: a read that
// races Delete returns either the whole range or ErrNotFound, never part.
func (fs *FS) ReadAt(name string, offset, length int64, fromNode int) ([]byte, ReadInfo, error) {
	if fs.injectReadFault() {
		fs.m.InjectedReadFailures.Add(1)
		return nil, ReadInfo{}, fmt.Errorf("%w: read %s", ErrInjected, name)
	}
	fs.mu.RLock()
	f, ok := fs.files[name]
	if !ok {
		fs.mu.RUnlock()
		return nil, ReadInfo{}, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	// Pick a serving replica: prefer the local one, else a random live one.
	serve, local := -1, false
	for _, n := range f.replicas {
		if n == fromNode && fs.alive[n] {
			serve, local = n, true
			break
		}
	}
	if serve == -1 {
		var liveReps []int
		for _, n := range f.replicas {
			if fs.alive[n] {
				liveReps = append(liveReps, n)
			}
		}
		if len(liveReps) == 0 {
			fs.mu.RUnlock()
			return nil, ReadInfo{}, fmt.Errorf("%w: %s", ErrUnavailable, name)
		}
		serve = liveReps[int(fs.m.Reads.Load())%len(liveReps)]
	}
	size := f.size
	if length < 0 {
		length = size - offset
	}
	if offset < 0 || offset > size || offset+length > size {
		fs.mu.RUnlock()
		return nil, ReadInfo{}, fmt.Errorf("%w: %s [%d,%d) of %d", ErrBadRange, name, offset, offset+length, size)
	}
	fs.mu.RUnlock()
	// A file's bytes never change once written, so neither residency needs
	// the lock to copy them out.
	var out []byte
	if fs.cfg.Dir == "" {
		out = append([]byte(nil), f.data[offset:offset+length]...)
	} else {
		var err error
		if out, err = fs.readBacking(name, offset, length); err != nil {
			return nil, ReadInfo{}, err
		}
	}

	lm := fs.cfg.Latency
	lat := fs.openDelay()
	if local {
		lat += transfer(length, lm.LocalBytesPerSec)
		fs.m.LocalReads.Add(1)
	} else {
		lat += transfer(length, lm.RemoteBytesPerSec)
		fs.m.RemoteReads.Add(1)
	}
	fs.m.Reads.Add(1)
	fs.m.BytesRead.Add(length)
	if fs.cfg.ObserveRead != nil {
		fs.cfg.ObserveRead(lat, local)
	}
	fs.sleep(lat)
	return out, ReadInfo{Local: local, Node: serve, Latency: lat}, nil
}

// Read reads the whole file as an external client.
func (fs *FS) Read(name string) ([]byte, error) {
	data, _, err := fs.ReadAt(name, 0, -1, -1)
	return data, err
}

// Size returns the file length.
func (fs *FS) Size(name string) (int64, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return f.size, nil
}

// LocationsBatch returns the replica node ids of each named file in a
// single metadata round-trip (one lock acquisition instead of one per
// file) — the coordinator's per-query locality lookup. Unknown or empty
// names yield nil entries rather than errors, matching how the dispatch
// planner treats chunks without location data.
func (fs *FS) LocationsBatch(names []string) [][]int {
	out := make([][]int, len(names))
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	for i, name := range names {
		if f, ok := fs.files[name]; ok {
			out[i] = append([]int(nil), f.replicas...)
		}
	}
	return out
}

// Delete removes a file. With Config.Dir the entry goes under the lock and
// the backing file is unlinked after it, the name staying reserved until it
// is: a Write of the same name cannot land under the unlink. An unlink that
// fails puts the entry back, so the file stays listed until a Delete
// succeeds.
func (fs *FS) Delete(name string) error {
	fs.mu.Lock()
	f, ok := fs.files[name]
	if !ok {
		fs.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	for _, n := range f.replicas {
		fs.used[n] -= f.size
	}
	delete(fs.files, name)
	if fs.cfg.Dir == "" {
		fs.mu.Unlock()
		return nil
	}
	fs.busy[name] = struct{}{}
	fs.mu.Unlock()
	err := fs.removeBacking(name)
	fs.mu.Lock()
	delete(fs.busy, name)
	if err != nil {
		fs.publishLocked(name, f)
	}
	fs.mu.Unlock()
	return err
}

// List returns all file names (unordered).
func (fs *FS) List() []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	out := make([]string, 0, len(fs.files))
	for name := range fs.files {
		out = append(out, name)
	}
	return out
}

// KillNode marks a datanode dead; its replicas stop serving reads.
func (fs *FS) KillNode(id int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if id >= 0 && id < len(fs.alive) {
		fs.alive[id] = false
	}
}

// ReviveNode brings a datanode back.
func (fs *FS) ReviveNode(id int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if id >= 0 && id < len(fs.alive) {
		fs.alive[id] = true
	}
}
