package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestAppendAssignsIncreasingOffsets(t *testing.T) {
	p := NewPartition()
	for i := 0; i < 10; i++ {
		if off, err := p.Append([]byte{byte(i)}); err != nil || off != int64(i) {
			t.Fatalf("offset %d, want %d (err %v)", off, i, err)
		}
	}
	if p.Next() != 10 {
		t.Errorf("Next = %d", p.Next())
	}
}

func TestReadFromOffset(t *testing.T) {
	p := NewPartition()
	for i := 0; i < 20; i++ {
		p.Append([]byte(fmt.Sprintf("r%d", i)))
	}
	recs, err := p.Read(5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 || recs[0].Offset != 5 || string(recs[0].Data) != "r5" {
		t.Fatalf("recs = %v", recs)
	}
	// Reading at head yields nothing, no error.
	recs, err = p.Read(20, 10)
	if err != nil || recs != nil {
		t.Errorf("head read = %v, %v", recs, err)
	}
	// Reading past head yields nothing too.
	recs, err = p.Read(100, 10)
	if err != nil || recs != nil {
		t.Errorf("past-head read = %v, %v", recs, err)
	}
}

func TestAppendCopiesData(t *testing.T) {
	p := NewPartition()
	buf := []byte("mutate-me")
	p.Append(buf)
	buf[0] = 'X'
	recs, _ := p.Read(0, 1)
	if string(recs[0].Data) != "mutate-me" {
		t.Error("append did not copy the record")
	}
}

func TestTruncateAndCompactedError(t *testing.T) {
	p := NewPartition()
	for i := 0; i < 10; i++ {
		p.Append([]byte{byte(i)})
	}
	p.Truncate(4)
	if p.Base() != 4 || p.Len() != 6 {
		t.Fatalf("base=%d len=%d", p.Base(), p.Len())
	}
	if _, err := p.Read(2, 5); !errors.Is(err, ErrCompacted) {
		t.Errorf("read below horizon: err = %v", err)
	}
	recs, err := p.Read(4, 100)
	if err != nil || len(recs) != 6 || recs[0].Offset != 4 {
		t.Fatalf("post-truncate read = %v, %v", recs, err)
	}
	// Offsets keep increasing after truncation.
	if off, _ := p.Append([]byte("new")); off != 10 {
		t.Errorf("offset after truncate = %d, want 10", off)
	}
	// Truncate beyond head clamps.
	p.Truncate(1000)
	if p.Len() != 0 || p.Base() != 11 {
		t.Errorf("over-truncate: len=%d base=%d", p.Len(), p.Base())
	}
	// Truncate below base is a no-op.
	p.Truncate(3)
	if p.Base() != 11 {
		t.Errorf("backwards truncate changed base: %d", p.Base())
	}
}

func TestBytesAccounting(t *testing.T) {
	p := NewPartition()
	p.Append(make([]byte, 100))
	p.Append(make([]byte, 50))
	if p.Bytes() != 150 {
		t.Fatalf("bytes = %d", p.Bytes())
	}
	p.Truncate(1)
	if p.Bytes() != 50 {
		t.Errorf("bytes after truncate = %d", p.Bytes())
	}
}

// waitBlocked waits until n goroutines are parked on the watermark — for a
// partition, inside ReadBlocking on its head — the deterministic
// replacement for "sleep and hope the reader blocked".
func waitBlocked(t *testing.T, w *Watermark, n int32) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for w.waiting.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("waiter never parked (waiting=%d, want %d)", w.waiting.Load(), n)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func TestReadBlockingWakesOnAppend(t *testing.T) {
	p := NewPartition()
	done := make(chan []Record, 1)
	go func() {
		recs, err := p.ReadBlocking(0, make([]Record, 10), nil)
		if err != nil {
			t.Errorf("blocking read: %v", err)
		}
		done <- recs
	}()
	waitBlocked(t, &p.head, 1)
	p.Append([]byte("wake"))
	select {
	case recs := <-done:
		if len(recs) != 1 || string(recs[0].Data) != "wake" {
			t.Fatalf("recs = %v", recs)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocking read never woke")
	}
}

// TestDemandEndsTheBatchingWindow: a reader waiting for the consumer
// (Demand) ends ReadBlocking's batching window, so the wake costs one apply,
// not one timer. Each round parks the reader at the head, appends, waits
// until it sits in the window and demands the record: the rounds together
// must take less than the windows they skipped, which a timer never fires
// before.
func TestDemandEndsTheBatchingWindow(t *testing.T) {
	p := NewPartition()
	const rounds = 200
	got := make(chan error, 1)
	go func() {
		buf := make([]Record, 1)
		for i := 0; i < rounds; i++ {
			_, err := p.ReadBlocking(int64(i), buf, nil)
			got <- err
		}
	}()
	parked := func(w *Watermark) {
		for deadline := time.Now().Add(5 * time.Second); w.waiting.Load() == 0; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatal("the reader never parked")
			}
		}
	}
	start := time.Now()
	for i := 0; i < rounds; i++ {
		parked(&p.head)
		if _, err := p.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
		parked(&p.demand)
		p.Demand(int64(i + 1))
		if err := <-got; err != nil {
			t.Fatal(err)
		}
	}
	if took, windows := time.Since(start), rounds*readLinger; took >= windows {
		t.Fatalf("%d demanded reads took %v, no less than %d batching windows (%v)", rounds, took, rounds, windows)
	}
}

func TestReadBlockingClose(t *testing.T) {
	p := NewPartition()
	errCh := make(chan error, 1)
	go func() {
		_, err := p.ReadBlocking(0, make([]Record, 10), nil)
		errCh <- err
	}()
	waitBlocked(t, &p.head, 1)
	p.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("close did not wake reader")
	}
	// Retained data remains readable after close.
	p2 := NewPartition()
	p2.Append([]byte("x"))
	p2.Close()
	recs, err := p2.ReadBlocking(0, make([]Record, 10), nil)
	if err != nil || len(recs) != 1 {
		t.Errorf("read after close = %v, %v", recs, err)
	}
}

func TestReplayEquivalence(t *testing.T) {
	// Consuming in two sessions (crash between them) yields the same
	// records as one pass — the recovery property §V depends on.
	p := NewPartition()
	for i := 0; i < 100; i++ {
		p.Append([]byte{byte(i)})
	}
	var once []byte
	off := int64(0)
	for {
		recs, _ := p.Read(off, 7)
		if len(recs) == 0 {
			break
		}
		for _, r := range recs {
			once = append(once, r.Data...)
			off = r.Offset + 1
		}
	}
	// Second consumer "crashes" at offset 40 and replays from there.
	var twice []byte
	for off := int64(0); off < 40; {
		recs, _ := p.Read(off, 11)
		for _, r := range recs {
			if r.Offset >= 40 {
				break
			}
			twice = append(twice, r.Data...)
			off = r.Offset + 1
		}
		if len(recs) == 0 {
			break
		}
	}
	for off := int64(40); ; {
		recs, _ := p.Read(off, 13)
		if len(recs) == 0 {
			break
		}
		for _, r := range recs {
			twice = append(twice, r.Data...)
			off = r.Offset + 1
		}
	}
	if string(once) != string(twice) {
		t.Error("replay after crash diverged from single pass")
	}
}

func TestConcurrentProducersAndConsumer(t *testing.T) {
	p := NewPartition()
	const producers, perP = 4, 500
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perP; i++ {
				p.Append([]byte{byte(g)})
			}
		}(g)
	}
	got := 0
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		off := int64(0)
		for got < producers*perP {
			recs, err := p.ReadBlocking(off, make([]Record, 64), nil)
			if err != nil {
				return
			}
			got += len(recs)
			off = recs[len(recs)-1].Offset + 1
		}
	}()
	wg.Wait()
	select {
	case <-consumerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("consumer did not finish")
	}
	if got != producers*perP {
		t.Errorf("consumed %d, want %d", got, producers*perP)
	}
}

func TestLog(t *testing.T) {
	l := NewLog(4)
	if l.Partitions() != 4 {
		t.Fatalf("partitions = %d", l.Partitions())
	}
	l.Partition(2).Append([]byte("x"))
	if l.Partition(2).Len() != 1 || l.Partition(0).Len() != 0 {
		t.Error("partition isolation broken")
	}
	l.Close()
	if _, err := l.Partition(0).ReadBlocking(0, make([]Record, 1), nil); !errors.Is(err, ErrClosed) {
		t.Error("close did not propagate")
	}
	if nl := NewLog(0); nl.Partitions() != 1 {
		t.Error("minimum one partition")
	}
}

func TestLogAddPartition(t *testing.T) {
	l := NewLog(1)
	p, i, err := l.AddPartition()
	if err != nil {
		t.Fatal(err)
	}
	if i != 1 || l.Partitions() != 2 || l.Partition(1) != p {
		t.Fatalf("add partition: i=%d n=%d", i, l.Partitions())
	}
	if _, err := p.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}

	// Disk-backed logs grow with files beside their siblings and recover
	// the added partition on reopen.
	dir := t.TempDir()
	dl, err := openLogDir(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	dp, di, err := dl.AddPartition()
	if err != nil {
		t.Fatal(err)
	}
	if di != 1 {
		t.Fatalf("disk add partition index = %d", di)
	}
	if _, err := dp.Append([]byte("y")); err != nil {
		t.Fatal(err)
	}
	dl.Close()
	for i := 0; i < dl.Partitions(); i++ {
		if err := dl.Partition(i).CloseFile(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "p1.wal")); err != nil {
		t.Fatalf("added partition file: %v", err)
	}
	re, err := openLogDir(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	recs, err := re.Partition(1).Read(0, 10)
	if err != nil || len(recs) != 1 || string(recs[0].Data) != "y" {
		t.Fatalf("reopened added partition read = %v, %v", recs, err)
	}
}
