// Package durable is the one way the store's bytes reach the disk: every
// create, write of a new file, fsync, rename and unlink of the log, the
// chunk files and the metadata snapshot goes through a *Files, so the order
// they run in can be observed, a failure injected at any of them, and a host
// crash simulated over all of them at once. A nil *Files is the plain
// operating system.
//
// A non-nil *Files also keeps what a kernel honouring fsync promises: per
// file, the length its last fsync covered, and per directory, the entry
// changes (creates, renames, removes) since the directory's last fsync,
// with the bytes a rename-over or a remove displaced. Crash rewinds the
// files to a state such a kernel may leave behind.
package durable

import (
	"cmp"
	"errors"
	"os"
	"path/filepath"
	"sync"
)

// Op names an operation for Files.Hook.
type Op string

const (
	OpCreate Op = "create" // a file created, or truncated, to be written afresh
	OpSync   Op = "sync"   // fsync of a file or a directory
	OpRename Op = "rename" // path is the new name
	OpRemove Op = "remove"
)

// ErrCrashed fails every operation from the start of a Crash until its
// stop has returned.
var ErrCrashed = errors.New("durable: host crashed")

// Files performs the operations, consulting Hook first.
type Files struct {
	// Hook, when set, sees every operation before it runs; a non-nil error
	// fails the operation without touching the disk.
	Hook func(op Op, path string) error

	// gate is held shared by every operation, from its crash check to its
	// end, and exclusively by Crash to raise crashed: an operation either
	// finishes before the crash or never touches the disk.
	gate    sync.RWMutex
	crashed bool
	mu      sync.Mutex
	synced  map[string]int64    // path → the length its last fsync covered
	dirs    map[string][]change // directory → entry changes since its fsync
}

// change is one directory entry change: path created, renamed to from from,
// or removed. old is what the change displaced at path (had: there was a
// file), cut to its synced length.
type change struct {
	op   Op
	path string
	from string
	old  []byte
	had  bool
}

// do runs fn as operation op on path: Hook first, then — unless a crash
// has begun — fn, with the crash held off until it returns. Open passes no
// op: reopening a file is no operation a hook or a crash cares about.
func (f *Files) do(op Op, path string, fn func() error) error {
	if f == nil {
		return fn()
	}
	if f.Hook != nil && op != "" {
		if err := f.Hook(op, path); err != nil {
			return err
		}
	}
	f.gate.RLock()
	defer f.gate.RUnlock()
	if f.crashed {
		return ErrCrashed
	}
	return fn()
}

// Create creates path, or truncates it, for reading and writing.
func (f *Files) Create(path string) (*os.File, error) {
	var h *os.File
	err := f.do(OpCreate, path, func() (err error) {
		existed := f != nil && exists(path)
		if h, err = os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644); err == nil {
			f.note(change{op: OpCreate, path: path}, !existed)
		}
		return err
	})
	return h, err
}

func exists(path string) bool {
	_, err := os.Lstat(path)
	return err == nil
}

// WriteFile creates path holding data.
func (f *Files) WriteFile(path string, data []byte) error {
	h, err := f.Create(path)
	if err != nil {
		return err
	}
	_, err = h.Write(data)
	return cmp.Or(err, h.Close())
}

// Open reopens the existing file at path for reading and writing. What it
// holds counts as synced: it is what the reopen found.
func (f *Files) Open(path string) (*os.File, error) {
	var h *os.File
	err := f.do("", path, func() (err error) {
		if h, err = os.OpenFile(path, os.O_RDWR, 0o644); err != nil {
			return err
		}
		if err = f.setSynced(h); err != nil {
			h.Close()
		}
		return err
	})
	return h, err
}

// Sync fsyncs the file or directory at path. It goes through a descriptor of
// its own: fsync covers the inode's dirty pages, whoever wrote them.
func (f *Files) Sync(path string) error {
	return f.do(OpSync, path, func() error {
		h, err := os.Open(path)
		if err != nil {
			return err
		}
		err = f.setSynced(h) // before the fsync: what it saw, the fsync covers
		if err == nil {
			err = h.Sync()
		}
		return cmp.Or(err, h.Close())
	})
}

// Rename moves oldPath to newPath.
func (f *Files) Rename(oldPath, newPath string) error {
	return f.do(OpRename, newPath, func() error {
		c := f.displaced(newPath)
		if err := os.Rename(oldPath, newPath); err != nil {
			return err
		}
		c.op, c.from = OpRename, oldPath
		f.note(c, true)
		return nil
	})
}

// Remove unlinks path.
func (f *Files) Remove(path string) error {
	return f.do(OpRemove, path, func() error {
		c := f.displaced(path)
		if err := os.Remove(path); err != nil {
			return err
		}
		c.op = OpRemove
		f.note(c, true)
		return nil
	})
}

// setSynced records the length of h's file as synced — for a directory,
// that its entries are: it forgets their changes.
func (f *Files) setSynced(h *os.File) error {
	if f == nil {
		return nil
	}
	st, err := h.Stat()
	if err != nil {
		return err
	}
	path := filepath.Clean(h.Name())
	f.mu.Lock()
	defer f.mu.Unlock()
	f.initLocked()
	if st.IsDir() {
		delete(f.dirs, path)
	} else {
		f.synced[path] = st.Size()
	}
	return nil
}

// initLocked makes the maps a crash left nil. Requires mu.
func (f *Files) initLocked() {
	if f.synced == nil {
		f.synced, f.dirs = make(map[string]int64), make(map[string][]change)
	}
}

// displaced returns a change at path holding the bytes of the file there,
// cut to its synced length: what a rename over it or its removal displaces.
func (f *Files) displaced(path string) change {
	c := change{path: filepath.Clean(path)}
	if f == nil {
		return c
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return c
	}
	f.mu.Lock()
	if n, ok := f.synced[c.path]; ok && n < int64(len(data)) {
		data = data[:n]
	}
	f.mu.Unlock()
	c.old, c.had = data, true
	return c
}

// note records c's effect on the synced lengths and, when entry is set (a
// create that made a new name is one; one that truncated an existing file
// is not), logs it against its directory.
func (f *Files) note(c change, entry bool) {
	if f == nil {
		return
	}
	c.path, c.from = filepath.Clean(c.path), filepath.Clean(c.from)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.initLocked()
	switch c.op {
	case OpCreate:
		f.synced[c.path] = 0
	case OpRename:
		n, ok := f.synced[c.from]
		delete(f.synced, c.from)
		delete(f.synced, c.path)
		if ok {
			f.synced[c.path] = n
		}
	case OpRemove:
		delete(f.synced, c.path)
	}
	if entry {
		dir := filepath.Dir(c.path)
		f.dirs[dir] = append(f.dirs[dir], c)
	}
}

// Crash simulates a host crash. Every operation from here on fails with
// ErrCrashed; stop — the caller's teardown, after which nothing writes —
// runs next. Then every file is cut to the length its last fsync covered,
// and in each directory the newest undo entry changes its last fsync did
// not cover are undone, newest first: a create is removed, a rename moved
// back, and what a rename-over or a remove displaced is put back. Undo 0
// keeps every name; undo beyond the count undoes them all. Finally the
// Files forgets everything and serves the next open as if new.
func (f *Files) Crash(undo int, stop func()) error {
	if f == nil {
		return errors.New("durable: a crash needs a non-nil Files")
	}
	f.gate.Lock()
	f.crashed = true
	f.gate.Unlock()
	stop()
	f.mu.Lock()
	var err error
	for path, n := range f.synced {
		if st, serr := os.Stat(path); serr == nil && st.Size() > n {
			err = cmp.Or(err, os.Truncate(path, n))
		}
	}
	for _, changes := range f.dirs {
		for i := len(changes) - 1; i >= max(len(changes)-undo, 0); i-- {
			err = cmp.Or(err, changes[i].undo())
		}
	}
	f.synced, f.dirs = nil, nil
	f.mu.Unlock()
	f.gate.Lock()
	f.crashed = false
	f.gate.Unlock()
	return err
}

// undo reverts c on the disk.
func (c change) undo() error {
	var err error
	switch c.op {
	case OpCreate:
		err = os.Remove(c.path)
	case OpRename:
		err = os.Rename(c.path, c.from)
	}
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	if c.had {
		return os.WriteFile(c.path, c.old, 0o644)
	}
	return nil
}
