package cluster

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"waterwheel/internal/durable"
)

// fileOps records, in order, the durable-file operations a cluster performs
// through its Config.Files seam, each classified by what the file is to a
// flush commit, and can fail the first operation of one class.
type fileOps struct {
	mu     sync.Mutex
	on     bool
	ops    []string
	failAt string
}

// Classes of fileOps.ops entries.
const (
	opChunkSync      = "sync chunk"
	opDFSDirSync     = "sync dfs dir"
	opJournalSync    = "sync journal"
	opJournalDirSync = "sync journal dir"
	opJournalRm      = "remove journal segment"
	opSegmentSync    = "sync segment"
	opWALDirSync     = "sync wal dir"
	opSegmentRm      = "remove segment"
)

func classify(dataDir string, op durable.Op, path string) string {
	rel, err := filepath.Rel(dataDir, path)
	if err != nil {
		return string(op) + " " + path
	}
	switch {
	case op == durable.OpSync && rel == "dfs":
		return opDFSDirSync
	case op == durable.OpSync && strings.HasPrefix(rel, "dfs"):
		return opChunkSync
	case op == durable.OpSync && rel == "meta.wal":
		return opJournalDirSync
	case op == durable.OpSync && strings.HasPrefix(rel, "meta.wal"):
		return opJournalSync
	case op == durable.OpRemove && strings.HasPrefix(rel, "meta.wal"):
		return opJournalRm
	case op == durable.OpSync && strings.HasSuffix(rel, ".seg"):
		return opSegmentSync
	case op == durable.OpSync && strings.HasPrefix(rel, "wal"):
		return opWALDirSync
	case op == durable.OpRemove && strings.HasSuffix(rel, ".seg"):
		return opSegmentRm
	}
	return string(op) + " " + rel
}

// files returns the seam to put in Config.Files for a cluster over dataDir.
func (f *fileOps) files(dataDir string) *durable.Files {
	return &durable.Files{Hook: func(op durable.Op, path string) error {
		f.mu.Lock()
		defer f.mu.Unlock()
		if !f.on {
			return nil
		}
		class := classify(dataDir, op, path)
		f.ops = append(f.ops, class)
		if class == f.failAt {
			f.failAt = ""
			return errInjectedFileOp
		}
		return nil
	}}
}

// record starts a recording, failing the first operation of class failAt
// ("" for none); the returned func ends it and returns what was seen.
func (f *fileOps) record(failAt string) (stop func() []string) {
	f.mu.Lock()
	f.on, f.ops, f.failAt = true, nil, failAt
	f.mu.Unlock()
	return func() []string {
		f.mu.Lock()
		defer f.mu.Unlock()
		f.on = false
		return f.ops
	}
}

// fsyncGate parks, while shut, every fsync of one directory and the files
// in it — a partition's segments — and fails them while failing is set.
type fsyncGate struct {
	dir     string
	gate    atomic.Pointer[chan struct{}]
	failing atomic.Bool
}

// partitionFsyncs gates the fsyncs of partition i of the log under dataDir.
func partitionFsyncs(dataDir string, i int) *fsyncGate {
	return &fsyncGate{dir: filepath.Join(dataDir, "wal", fmt.Sprintf("p%d.wal", i))}
}

func (g *fsyncGate) hook(op durable.Op, path string) error {
	if op != durable.OpSync || (path != g.dir && filepath.Dir(path) != g.dir) {
		return nil
	}
	if ch := g.gate.Load(); ch != nil {
		<-*ch
	}
	if g.failing.Load() {
		return errInjectedFileOp
	}
	return nil
}

// shut parks every later fsync the gate covers until the returned open
// (idempotent).
func (g *fsyncGate) shut() (open func()) {
	ch := make(chan struct{})
	g.gate.Store(&ch)
	return sync.OnceFunc(func() {
		g.gate.Store(nil)
		close(ch)
	})
}

// failingChunkSyncs returns a seam that, while armed, fails every fsync of a
// chunk file or of the DFS directory under dataDir: a flusher then writes a
// chunk and cannot register it.
func failingChunkSyncs(dataDir string) (*durable.Files, *atomic.Bool) {
	var armed atomic.Bool
	dir := filepath.Join(dataDir, "dfs")
	return &durable.Files{Hook: func(op durable.Op, path string) error {
		if armed.Load() && op == durable.OpSync && (path == dir || filepath.Dir(path) == dir) {
			return errInjectedFileOp
		}
		return nil
	}}, &armed
}

// gatedFiles returns the seam to put in Config.Files for fsyncs gated by gates.
func gatedFiles(gates ...*fsyncGate) *durable.Files {
	return &durable.Files{Hook: func(op durable.Op, path string) error {
		for _, g := range gates {
			if err := g.hook(op, path); err != nil {
				return err
			}
		}
		return nil
	}}
}

// CrashIndexServer simulates an indexing-server failure and recovery (§V):
// the server's goroutine stops, its in-memory state is discarded, and a
// successor replaying the WAL takes over. The call blocks
// until the successor has caught up with the partition head at call time.
func (c *Cluster) CrashIndexServer(i int) error {
	if c.server(i) == nil {
		return fmt.Errorf("cluster: no indexing server %d", i)
	}
	head := c.log.Partition(i).Next()
	if err := c.KillIndexServer(i); err != nil {
		return err
	}
	return c.waitApplied(i, head)
}
