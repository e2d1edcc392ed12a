// Package durable holds the three file operations a checkpoint is made of —
// fsync a file or directory by path, rename, remove — behind one value, so
// the order they run in can be observed and a failure injected at any of
// them. A nil *Files is the plain operating system.
package durable

import (
	"os"
)

// Op names an operation for Files.Hook.
type Op string

const (
	OpSync   Op = "sync"   // fsync of a file or a directory
	OpRename Op = "rename" // path is the new name
	OpRemove Op = "remove"
)

// Files performs the operations, consulting Hook first.
type Files struct {
	// Hook, when set, sees every operation before it runs; a non-nil error
	// fails the operation without touching the disk.
	Hook func(op Op, path string) error
}

func (f *Files) before(op Op, path string) error {
	if f == nil || f.Hook == nil {
		return nil
	}
	return f.Hook(op, path)
}

// Sync fsyncs the file or directory at path. It goes through a descriptor of
// its own: fsync covers the inode's dirty pages, whoever wrote them.
func (f *Files) Sync(path string) error {
	if err := f.before(OpSync, path); err != nil {
		return err
	}
	h, err := os.Open(path)
	if err != nil {
		return err
	}
	err = h.Sync()
	if cerr := h.Close(); err == nil {
		err = cerr
	}
	return err
}

// Rename moves oldPath to newPath.
func (f *Files) Rename(oldPath, newPath string) error {
	if err := f.before(OpRename, newPath); err != nil {
		return err
	}
	return os.Rename(oldPath, newPath)
}

// Remove unlinks path.
func (f *Files) Remove(path string) error {
	if err := f.before(OpRemove, path); err != nil {
		return err
	}
	return os.Remove(path)
}
