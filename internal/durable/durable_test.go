package durable

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// read returns the bytes of the file at path, or "<none>" when there is none.
func read(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return "<none>"
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// appendTo writes data at the end of the existing file at path, through f.
func appendTo(t *testing.T, f *Files, path, data string) {
	t.Helper()
	h, err := f.Open(path)
	must(t, err)
	_, err = h.WriteAt([]byte(data), int64(len(read(t, path))))
	must(t, err)
	must(t, h.Close())
}

func TestNilFilesIsThePlainOS(t *testing.T) {
	var f *Files
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	must(t, f.WriteFile(a, []byte("one")))
	appendTo(t, f, a, "+two")
	must(t, f.Sync(a))
	must(t, f.Sync(dir))
	must(t, f.Rename(a, b))
	h, err := f.Create(a)
	must(t, err)
	must(t, h.Close())
	if got := read(t, b); got != "one+two" {
		t.Fatalf("b holds %q, want one+two", got)
	}
	must(t, f.Remove(b))
	if read(t, b) != "<none>" || read(t, a) != "" {
		t.Fatalf("after the remove: a %q, b %q", read(t, a), read(t, b))
	}
	if err := f.Crash(0, func() { t.Fatal("a nil Files ran the teardown") }); err == nil {
		t.Fatal("a nil Files crashed")
	}
}

// TestCrashCutsToSyncedLength: every file is cut to what its last fsync
// covered — a file reopened counts as synced at the length it was found
// with — and every name survives at undo 0.
func TestCrashCutsToSyncedLength(t *testing.T) {
	dir := t.TempDir()
	old, synced, fresh := filepath.Join(dir, "old"), filepath.Join(dir, "synced"), filepath.Join(dir, "fresh")
	must(t, os.WriteFile(old, []byte("found"), 0o644))
	f := &Files{}
	appendTo(t, f, old, "+appended")
	must(t, f.WriteFile(synced, []byte("durable")))
	must(t, f.Sync(synced))
	appendTo(t, f, synced, "+cached")
	must(t, f.WriteFile(fresh, []byte("never synced")))
	must(t, f.Crash(0, func() {}))
	for path, want := range map[string]string{old: "found", synced: "durable", fresh: ""} {
		if got := read(t, path); got != want {
			t.Errorf("%s holds %q after the crash, want %q", filepath.Base(path), got, want)
		}
	}
}

// TestCrashUndoesNewestEntryChangesFirst: undo k reverts the newest k entry
// changes no directory fsync covered — a create goes, a rename moves back,
// and the bytes a rename-over or a remove displaced come back, cut to what
// was synced of them — and none a directory fsync covered.
func TestCrashUndoesNewestEntryChangesFirst(t *testing.T) {
	type state struct{ snap, tmp, gone, fresh string }
	want := []state{
		{"v2", "<none>", "<none>", ""},       // undo 0: names as they are
		{"v2", "<none>", "<none>", "<none>"}, // the create of fresh
		{"v2", "<none>", "bye", "<none>"},    // the remove of gone
		{"v1", "v2", "bye", "<none>"},        // the rename of tmp over snap
		{"v1", "<none>", "bye", "<none>"},    // the create of tmp
		{"v1", "<none>", "bye", "<none>"},    // nothing older is undone
	}
	for undo, w := range want {
		t.Run(fmt.Sprintf("undo=%d", undo), func(t *testing.T) {
			dir := t.TempDir()
			snap, tmp := filepath.Join(dir, "snap"), filepath.Join(dir, "tmp")
			gone, fresh := filepath.Join(dir, "gone"), filepath.Join(dir, "fresh")
			f := &Files{}
			must(t, f.WriteFile(snap, []byte("v1")))
			must(t, f.Sync(snap))
			must(t, f.WriteFile(gone, []byte("bye")))
			must(t, f.Sync(gone))
			appendTo(t, f, gone, "+unsynced")
			must(t, f.Sync(dir)) // the two creates are durable

			must(t, f.WriteFile(tmp, []byte("v2")))
			must(t, f.Sync(tmp))
			must(t, f.Rename(tmp, snap))
			must(t, f.Remove(gone))
			h, err := f.Create(fresh)
			must(t, err)
			must(t, h.Close())
			undo := undo
			if undo == len(want)-1 {
				undo = math.MaxInt
			}
			must(t, f.Crash(undo, func() {}))
			got := state{read(t, snap), read(t, tmp), read(t, gone), read(t, fresh)}
			if got != w {
				t.Fatalf("after the crash: %+v, want %+v", got, w)
			}
		})
	}
}

// TestOperationsDuringCrashFail: from the start of a crash to the end of its
// teardown every operation fails with ErrCrashed, one held in the hook across
// the start included, and none touches the disk.
func TestOperationsDuringCrashFail(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	held, release := make(chan struct{}), make(chan struct{})
	f := &Files{Hook: func(op Op, path string) error {
		if op == OpCreate && path == b {
			close(held)
			<-release
		}
		return nil
	}}
	must(t, f.WriteFile(a, []byte("a")))
	heldErr := make(chan error, 1)
	go func() { heldErr <- f.WriteFile(b, []byte("b")) }()
	<-held
	must(t, f.Crash(math.MaxInt, func() {
		close(release)
		if err := <-heldErr; !errors.Is(err, ErrCrashed) {
			t.Errorf("an operation held across the crash: %v, want ErrCrashed", err)
		}
		_, errCreate := f.Create(filepath.Join(dir, "c"))
		_, errOpen := f.Open(a)
		for what, err := range map[string]error{
			"create": errCreate,
			"open":   errOpen,
			"write":  f.WriteFile(filepath.Join(dir, "d"), nil),
			"sync":   f.Sync(a),
			"rename": f.Rename(a, b),
			"remove": f.Remove(a),
		} {
			if !errors.Is(err, ErrCrashed) {
				t.Errorf("%s during the crash: %v, want ErrCrashed", what, err)
			}
		}
	}))
	entries, err := os.ReadDir(dir)
	must(t, err)
	if len(entries) != 0 {
		t.Fatalf("the directory holds %d entries after undoing every change, want none", len(entries))
	}
}

// TestFilesServeTheNextOpen: after a crash the same Files works again and
// keeps no state from before it — what the crash left counts as synced.
func TestFilesServeTheNextOpen(t *testing.T) {
	dir := t.TempDir()
	kept, fresh := filepath.Join(dir, "kept"), filepath.Join(dir, "fresh")
	left := filepath.Join(dir, "left") // a create the first crash leaves
	f := &Files{}
	must(t, f.WriteFile(kept, []byte("kept")))
	must(t, f.Sync(kept))
	must(t, f.Sync(dir))
	must(t, f.WriteFile(left, []byte("unsynced")))
	must(t, f.Crash(0, func() {}))

	appendTo(t, f, kept, "+more")
	must(t, f.Sync(kept))
	must(t, f.WriteFile(fresh, []byte("fresh")))
	must(t, f.Crash(math.MaxInt, func() {}))
	if got := read(t, kept); got != "kept+more" {
		t.Fatalf("kept holds %q after the second crash, want kept+more", got)
	}
	if got := read(t, fresh); got != "<none>" {
		t.Fatalf("fresh holds %q after the second crash undid its create", got)
	}
	if got := read(t, left); got != "" {
		t.Fatalf("left holds %q after the second crash, want the empty file the first one left", got)
	}
}
