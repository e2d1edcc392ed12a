package dfs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Disk backing: when Config.Dir is set, file contents live on the local
// filesystem and only there (one physical copy per logical file, no copy on
// the heap: the file table keeps size and placement, so memory does not
// grow with the bytes stored and a restart loads none of them). The replica
// placement metadata persists in a JSON manifest, so a restarted process
// serves the chunks written by its predecessor. A read opens the backing
// file, preads the range and closes it again: no descriptor outlives the
// read. Simulated latencies and locality semantics are unchanged.

// manifestName is the metadata file inside the backing directory.
const manifestName = "MANIFEST.json"

// manifestEntry records one file's placement.
type manifestEntry struct {
	Name     string `json:"name"`
	Size     int64  `json:"size"`
	Replicas []int  `json:"replicas"`
}

// manifest is the persistent image of the file table.
type manifest struct {
	Nodes int             `json:"nodes"`
	Files []manifestEntry `json:"files"`
}

// diskPath maps a logical name to a backing file path. Logical names use
// '/' separators; they flatten to one directory level to avoid surprises
// with path traversal.
func (fs *FS) diskPath(name string) string {
	enc := strings.ReplaceAll(name, "%", "%25")
	enc = strings.ReplaceAll(enc, "/", "%2F")
	return filepath.Join(fs.cfg.Dir, enc)
}

// loadDir restores the file table from the backing directory. Called by
// New with the lock not yet shared.
func (fs *FS) loadDir() error {
	if err := os.MkdirAll(fs.cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("dfs: backing dir: %w", err)
	}
	raw, err := os.ReadFile(filepath.Join(fs.cfg.Dir, manifestName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("dfs: manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("dfs: manifest decode: %w", err)
	}
	for _, e := range m.Files {
		st, err := os.Stat(fs.diskPath(e.Name))
		if err != nil {
			return fmt.Errorf("dfs: load %s: %w", e.Name, err)
		}
		if st.Size() != e.Size {
			return fmt.Errorf("%w: %s holds %d bytes, manifest says %d", ErrSizeMismatch, e.Name, st.Size(), e.Size)
		}
		replicas := e.Replicas
		for _, n := range replicas {
			if n < 0 || n >= fs.cfg.Nodes {
				// The cluster shrank across restarts; re-place the replica
				// on node 0 to stay within bounds.
				replicas = []int{0}
				break
			}
		}
		fs.files[e.Name] = &file{size: e.Size, replicas: replicas}
		for _, n := range replicas {
			fs.used[n] += e.Size
		}
	}
	return nil
}

// saveManifestLocked rewrites the manifest. Caller holds fs.mu.
func (fs *FS) saveManifestLocked() error {
	m := manifest{Nodes: fs.cfg.Nodes}
	for name, f := range fs.files {
		m.Files = append(m.Files, manifestEntry{
			Name: name, Size: f.size, Replicas: f.replicas,
		})
	}
	raw, err := json.Marshal(&m)
	if err != nil {
		return err
	}
	tmp := filepath.Join(fs.cfg.Dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	fs.manifestUnsynced = true
	return os.Rename(tmp, filepath.Join(fs.cfg.Dir, manifestName))
}

// persistWrite stores a file's bytes and updates the manifest. Caller
// holds fs.mu.
func (fs *FS) persistWriteLocked(name string, data []byte) error {
	if err := os.WriteFile(fs.diskPath(name), data, 0o644); err != nil {
		return fmt.Errorf("dfs: persist %s: %w", name, err)
	}
	fs.unsynced = append(fs.unsynced, name)
	return fs.saveManifestLocked()
}

// Sync puts every Dir-backed file written since the last Sync, the manifest
// that names them and the directory on stable storage — outside fs.mu, so
// writes and reads go on meanwhile. Write itself does not fsync (a flusher
// must not wait on the disk's sync rate); a checkpoint calls Sync before it
// lets go of the log records the files replace. The manifest is synced after
// the files and a pass repeats while writes keep landing, so the manifest
// that ends up durable never names a file that is not. A no-op in memory.
func (fs *FS) Sync() error {
	if fs.cfg.Dir == "" {
		return nil
	}
	fs.syncMu.Lock()
	defer fs.syncMu.Unlock()
	for {
		fs.mu.Lock()
		names, manifest := fs.unsynced, fs.manifestUnsynced
		fs.unsynced, fs.manifestUnsynced = nil, false
		fs.mu.Unlock()
		if len(names) == 0 && !manifest {
			return nil
		}
		err := fs.syncFiles(names)
		if err != nil {
			// Owed again at the next Sync.
			fs.mu.Lock()
			fs.unsynced = append(names, fs.unsynced...)
			fs.manifestUnsynced = true
			fs.mu.Unlock()
			return fmt.Errorf("dfs: sync: %w", err)
		}
	}
}

// syncFiles fsyncs the named files, then the manifest, then the directory.
func (fs *FS) syncFiles(names []string) error {
	for _, name := range names {
		// A file deleted since it was written has nothing left to keep.
		if err := fs.cfg.Files.Sync(fs.diskPath(name)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	if err := fs.cfg.Files.Sync(filepath.Join(fs.cfg.Dir, manifestName)); err != nil {
		return err
	}
	return fs.cfg.Files.Sync(fs.cfg.Dir)
}

// readBacking reads [offset, offset+length) of a file's backing bytes. The
// caller checked the range against the file table and holds no lock. The
// name may have been deleted since (an unlinked file stays whole for a read
// already in flight on it) or even written again with other bytes: whatever
// cannot supply the checked range means the file that was looked up is
// gone, which is ErrNotFound.
func (fs *FS) readBacking(name string, offset, length int64) ([]byte, error) {
	f, err := os.Open(fs.diskPath(name))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if err != nil {
		return nil, fmt.Errorf("dfs: read %s: %w", name, err)
	}
	defer f.Close()
	out := make([]byte, length)
	if _, err := f.ReadAt(out, offset); err == io.EOF {
		return nil, fmt.Errorf("%w: %s (replaced under the read)", ErrNotFound, name)
	} else if err != nil {
		return nil, fmt.Errorf("dfs: read %s: %w", name, err)
	}
	return out, nil
}

// persistDeleteLocked removes a file's backing bytes. Caller holds fs.mu.
func (fs *FS) persistDeleteLocked(name string) error {
	if err := os.Remove(fs.diskPath(name)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("dfs: unpersist %s: %w", name, err)
	}
	return fs.saveManifestLocked()
}
