package waterwheel

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"waterwheel/internal/model"
)

// A restart is a second PROCESS over the DataDir: everything a process
// counts from zero (flush sequences, the compactor's sequence) starts over,
// which no in-process reopen can show. TestRestartOverUsedDataDir re-executes
// the test binary as the directory's first process and is itself the second.

const (
	restartFresh = 6000 // tuples a process writes at "now" (day 10): read back exactly once
	restartOld   = 3000 // tuples it writes on day 0: what its compaction then merges
	restartTail  = 50   // acked after the first process's last flush: only the log has them
	restartGen   = 1_000_000
)

func restartOptions(dir string) Options {
	return Options{
		Nodes: 1, IndexServersPerNode: 2, QueryServersPerNode: 2,
		ChunkBytes:          32 << 10,
		DataDir:             dir,
		TierWarmAfterMillis: 2 * dayMs,
		TierColdAfterMillis: 5 * dayMs,
		Seed:                1,
	}
}

// restartTuple is tuple id: process gen's fresh tuples are gen*restartGen+i,
// its day-0 ones gen*restartGen+restartGen/2+i. The id is the payload.
func restartTuple(id uint64) Tuple {
	i := id % restartGen
	ts := 10*dayMs + int64(i)
	if i >= restartGen/2 {
		ts = int64(i - restartGen/2)
	}
	return Tuple{Key: Key(id * 0x9E3779B97F4A7C15), Time: Timestamp(ts), Payload: binary.BigEndian.AppendUint64(nil, id)}
}

func restartInsert(db *DB, from, n uint64) error {
	for i := uint64(0); i < n; i += 100 {
		batch := make([]Tuple, 0, 100)
		for j := i; j < min(i+100, n); j++ {
			batch = append(batch, restartTuple(from+j))
		}
		if err := db.InsertBatch(batch); err != nil {
			return err
		}
	}
	return nil
}

// restartWrite is one process's work: its tuples in, applied, flushed.
func restartWrite(db *DB, gen uint64) error {
	if err := restartInsert(db, gen*restartGen, restartFresh); err != nil {
		return err
	}
	if err := restartInsert(db, gen*restartGen+restartGen/2, restartOld); err != nil {
		return err
	}
	if err := db.Drain(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := db.Flush(); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	return nil
}

// restartVerify reads times back and requires the ids of want — [from,
// from+n) per entry — each exactly once. Downsampled rows (32-byte payloads)
// are not tuples anybody acked.
func restartVerify(db *DB, times TimeRange, want map[uint64]uint64) error {
	res, err := db.QueryRange(FullKeyRange(), times)
	if err != nil {
		return err
	}
	seen := make(map[uint64]bool)
	for _, tp := range res.Tuples {
		if len(tp.Payload) != 8 {
			continue
		}
		id := binary.BigEndian.Uint64(tp.Payload)
		if n, ok := want[id-id%(restartGen/2)]; !ok || id%(restartGen/2) >= n {
			continue // another generation's day-0 tuples: compacted by their writer
		}
		if seen[id] {
			return fmt.Errorf("tuple %d returned twice", id)
		}
		seen[id] = true
	}
	var total uint64
	for _, n := range want {
		total += n
	}
	if uint64(len(seen)) != total {
		return fmt.Errorf("%d of %d acked tuples returned", len(seen), total)
	}
	return nil
}

var (
	restartDay0  = TimeRange{Lo: 0, Hi: Timestamp(dayMs - 1)}
	restartDay10 = TimeRange{Lo: Timestamp(10 * dayMs), Hi: Timestamp(11*dayMs - 1)}
)

// restartCompact runs one tiering round and requires it to have merged the
// day-0 chunks without an error.
func restartCompact(db *DB) error {
	_, merged := db.Compact()
	if errs := db.Telemetry().Counter("waterwheel_compaction_errors_total", "").Value(); merged == 0 || errs != 0 {
		return fmt.Errorf("compaction: %d merges, %d errors", merged, errs)
	}
	return nil
}

// TestHelperProcess is the first process of TestRestartOverUsedDataDir, not
// a test of its own: it opens the directory, writes, flushes, compacts,
// acks a tail only the log holds, and ends the way WW_RESTART_EXIT says.
func TestHelperProcess(t *testing.T) {
	dir, how := os.Getenv("WW_RESTART_DIR"), os.Getenv("WW_RESTART_EXIT")
	if dir == "" {
		t.Skip("re-executed by TestRestartOverUsedDataDir")
	}
	db, err := Open(restartOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	steps := []func() error{
		func() error { return restartWrite(db, 0) },
		func() error { return restartVerify(db, restartDay10, map[uint64]uint64{0: restartFresh}) },
		func() error { return restartVerify(db, restartDay0, map[uint64]uint64{restartGen / 2: restartOld}) },
		func() error { return restartCompact(db) },
		func() error { return restartInsert(db, restartFresh, restartTail) },
		db.Drain,
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("first process, step %d: %v", i, err)
		}
	}
	switch how {
	case "close":
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	case "exit":
		os.Exit(0)
	case "kill":
		fmt.Println("\nready")
		select {}
	}
}

// TestRestartOverUsedDataDir: a new process over a DataDir its predecessor
// left by a clean Close, by os.Exit without Close, or by SIGKILL, writes,
// flushes, compacts and reads every acked tuple exactly once. Chunk names
// come from the durable ownership epoch; when they came from per-process
// counters the second process's every flush was dfs.ErrExists, retried for
// good, and Drain parked behind it.
func TestRestartOverUsedDataDir(t *testing.T) {
	for _, how := range []string{"close", "exit", "kill"} {
		t.Run(how, func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(os.Args[0], "-test.run=^TestHelperProcess$")
			cmd.Env = append(os.Environ(), "WW_RESTART_DIR="+dir, "WW_RESTART_EXIT="+how)
			cmd.Stderr = os.Stderr
			out, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			var log strings.Builder
			for sc := bufio.NewScanner(out); sc.Scan(); {
				log.WriteString(sc.Text() + "\n")
				if sc.Text() == "ready" {
					cmd.Process.Kill() // SIGKILL: no handler, no deferred call, no Close
				}
			}
			if err := cmd.Wait(); (err != nil) != (how == "kill") {
				t.Fatalf("first process (%s) ended with %v:\n%s", how, err, log.String())
			}

			done := make(chan error, 1)
			go func() { done <- restartSecondProcess(dir) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(2 * time.Minute):
				t.Fatal("second process parked: a flush that cannot succeed is being retried, or waited for")
			}
		})
	}
}

// restartOnlyRegistered requires dir/dfs to hold the registered chunks — as
// many files, as many bytes — and nothing else: what the first process wrote
// and no snapshot names went at Open, and Close leaves nothing unregistered.
func restartOnlyRegistered(db *DB, dir, when string) error {
	entries, err := os.ReadDir(filepath.Join(dir, "dfs"))
	if err != nil {
		return err
	}
	var onDisk int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return err
		}
		onDisk += info.Size()
	}
	chunks := db.Cluster().Metadata().ChunksFor(model.FullRegion())
	var registered int64
	for _, ci := range chunks {
		registered += ci.Size
	}
	if len(entries) != len(chunks) || onDisk != registered {
		return fmt.Errorf("%s: dfs/ holds %d files and %d bytes, the registry names %d chunks of %d bytes",
			when, len(entries), onDisk, len(chunks), registered)
	}
	return nil
}

// restartSecondProcess is what the restarted deployment does, every step of
// it required to work.
func restartSecondProcess(dir string) error {
	db, err := Open(restartOptions(dir))
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	if err := restartOnlyRegistered(db, dir, "after the second process's Open"); err != nil {
		db.Close()
		return err
	}
	fresh := map[uint64]uint64{0: restartFresh + restartTail, restartGen: restartFresh}
	steps := []func() error{
		func() error { return restartWrite(db, 1) },
		func() error { return restartVerify(db, restartDay10, fresh) },
		func() error {
			return restartVerify(db, restartDay0, map[uint64]uint64{restartGen + restartGen/2: restartOld})
		},
		func() error {
			var failures int64
			for _, srv := range db.Cluster().IndexServers() {
				failures += srv.Stats().FlushFailures.Load()
			}
			if failures != 0 {
				return fmt.Errorf("%d flush failures", failures)
			}
			return nil
		},
		func() error { return restartCompact(db) },
		func() error { return restartVerify(db, restartDay10, fresh) },
		db.Close,
		func() error { return restartOnlyRegistered(db, dir, "after the second process's Close") },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			db.Close()
			return fmt.Errorf("second process, step %d: %w", i, err)
		}
	}
	return nil
}

// TestCheckpointAfterCloseWritesNothing: a closed handle no longer owns its
// DataDir — the next process may be running over it already. Its Checkpoint
// used to write the closed deployment's registry over that process's
// meta.snap, and the reopen after it swept the newer chunks as orphans and
// could not replay below the log's horizon: every tuple the newer process
// acked was gone. Now the handle, and the cluster under it, answer ErrClosed
// and the metadata journal stays as the newer process left it.
func TestCheckpointAfterCloseWritesNothing(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Nodes: 1, IndexServersPerNode: 2, QueryServersPerNode: 2, ChunkBytes: 32 << 10, DataDir: dir, Seed: 1}
	stale, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := restartInsert(stale, 0, 1000); err != nil {
		t.Fatal(err)
	}
	if err := stale.Close(); err != nil {
		t.Fatal(err)
	}
	next, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := restartInsert(next, restartGen, 3000); err != nil {
		t.Fatal(err)
	}
	if err := next.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := next.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := next.Close(); err != nil {
		t.Fatal(err)
	}

	journal := func() map[string]string {
		entries, err := os.ReadDir(filepath.Join(dir, "meta.wal"))
		if err != nil || len(entries) == 0 {
			t.Fatalf("the metadata journal: %d files, %v", len(entries), err)
		}
		files := make(map[string]string)
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, "meta.wal", e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = string(b)
		}
		return files
	}
	before := journal()
	if err := stale.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Errorf("Checkpoint on a closed DB = %v, want ErrClosed", err)
	}
	if err := stale.Cluster().Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Errorf("Checkpoint on a stopped cluster = %v, want ErrClosed", err)
	}
	if after := journal(); !reflect.DeepEqual(before, after) {
		t.Errorf("the metadata journal changed under a closed handle's Checkpoint")
	}

	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := restartVerify(db, restartDay10, map[uint64]uint64{0: 1000, restartGen: 3000}); err != nil {
		t.Fatal(err)
	}
}
