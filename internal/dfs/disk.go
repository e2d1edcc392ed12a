package dfs

import (
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"strings"
)

// Disk backing: when Config.Dir is set, file contents live on the local
// filesystem and only there (one physical copy per logical file, no copy on
// the heap: the file table keeps size and placement, so memory does not
// grow with the bytes stored and a restart loads none of them). The
// directory is the file table's durable form — a file's name is its entry's
// name, its length the entry's size, and its placement is recomputed (see
// place) — so a restarted process serves the chunks written by its
// predecessor with nothing else to read, rewrite or keep in step. A read
// opens the backing file, preads the range and closes it again: no
// descriptor outlives the read. Simulated latencies and locality semantics
// are unchanged.

// tmpSuffix ends the name of a backing file still being written. diskPath
// follows every '%' with "25" or "2F", so no logical name encodes to it.
const tmpSuffix = "%tmp"

// diskPath maps a logical name to a backing file path. Logical names use
// '/' separators; they flatten to one directory level to avoid surprises
// with path traversal.
func (fs *FS) diskPath(name string) string {
	enc := strings.ReplaceAll(name, "%", "%25")
	enc = strings.ReplaceAll(enc, "/", "%2F")
	return filepath.Join(fs.cfg.Dir, enc)
}

// logicalName inverts diskPath for a directory entry; ok is false for an
// entry that is not the encoding of any name, which no Write can have made.
func (fs *FS) logicalName(entry string) (name string, ok bool) {
	name, err := url.PathUnescape(entry)
	return name, err == nil && fs.diskPath(name) == filepath.Join(fs.cfg.Dir, entry)
}

// loadDir builds the file table from the backing directory: every regular
// file whose name decodes is served at the length it has; a temporary file a
// dead writer left is removed; anything else is not ours and is left alone.
// Called by Open with the lock not yet shared and every node alive.
func (fs *FS) loadDir() error {
	if err := os.MkdirAll(fs.cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("dfs: backing dir: %w", err)
	}
	entries, err := os.ReadDir(fs.cfg.Dir)
	if err != nil {
		return fmt.Errorf("dfs: backing dir: %w", err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if strings.HasSuffix(e.Name(), tmpSuffix) {
			fs.cfg.Files.Remove(filepath.Join(fs.cfg.Dir, e.Name())) // never served; the next Open tries again
			continue
		}
		name, ok := fs.logicalName(e.Name())
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return fmt.Errorf("dfs: load %s: %w", name, err)
		}
		fs.publishLocked(name, &file{
			size:     info.Size(),
			replicas: place(fs.cfg.Seed, name, fs.alive, fs.cfg.Replication),
		})
	}
	return nil
}

// writeBacking puts a file's bytes in place: written under a temporary name,
// then renamed. The caller reserved the name and holds no lock. On failure
// nothing is left under either name.
func (fs *FS) writeBacking(name string, data []byte) error {
	path := fs.diskPath(name)
	err := fs.cfg.Files.WriteFile(path+tmpSuffix, data)
	if err == nil {
		err = fs.cfg.Files.Rename(path+tmpSuffix, path)
	}
	if err != nil {
		fs.cfg.Files.Remove(path + tmpSuffix) // best effort: Open removes what this leaves
		return fmt.Errorf("dfs: persist %s: %w", name, err)
	}
	return nil
}

// removeBacking unlinks a file's bytes. The caller reserved the name and
// holds no lock.
func (fs *FS) removeBacking(name string) error {
	if err := fs.cfg.Files.Remove(fs.diskPath(name)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("dfs: unpersist %s: %w", name, err)
	}
	return nil
}

// Sync puts every Dir-backed file written since the last Sync, and the
// directory that names them, on stable storage — outside fs.mu, so writes
// and reads go on meanwhile. Write itself does not fsync (a flusher must not
// wait on the disk's sync rate); a checkpoint calls Sync before it lets go
// of the log records the files replace. A failed pass owes everything again.
// A no-op in memory.
func (fs *FS) Sync() error {
	if fs.cfg.Dir == "" {
		return nil
	}
	fs.syncMu.Lock()
	defer fs.syncMu.Unlock()
	fs.mu.Lock()
	names := fs.unsynced
	fs.unsynced = nil
	fs.mu.Unlock()
	if len(names) == 0 {
		return nil
	}
	if err := fs.syncFiles(names); err != nil {
		fs.mu.Lock()
		fs.unsynced = append(names, fs.unsynced...)
		fs.mu.Unlock()
		return fmt.Errorf("dfs: sync: %w", err)
	}
	return nil
}

// syncFiles fsyncs the named files, then the directory.
func (fs *FS) syncFiles(names []string) error {
	for _, name := range names {
		// A file deleted since it was written has nothing left to keep.
		if err := fs.cfg.Files.Sync(fs.diskPath(name)); err != nil && !os.IsNotExist(err) {
			return err
		}
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
