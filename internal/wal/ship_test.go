package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"waterwheel/internal/transport"
)

func TestShippingRoundTrip(t *testing.T) {
	l := NewLog(2)
	p := l.Partition(1)
	for i := 0; i < 5; i++ {
		if _, err := p.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}

	srv := transport.NewServer()
	RegisterShipping(srv, l)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := transport.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	tail := NewRemoteTail(c, 1)
	recs, err := tail.ReadBlocking(0, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("read %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.Offset != int64(i) || len(r.Data) != 1 || r.Data[0] != byte(i) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	// Reading at the head is a long-poll: it parks on the server and, with
	// nothing appended, answers no records and no error at the bound.
	start := time.Now()
	recs, err = tail.ReadBlocking(5, 10, nil)
	if err != nil || len(recs) != 0 {
		t.Fatalf("head read = %v, %v", recs, err)
	}
	if d := time.Since(start); d < shipLongPoll/2 || d > 20*shipLongPoll {
		t.Fatalf("head read took %v, want about the %v bound", d, shipLongPoll)
	}
	// Compaction below the requested offset surfaces as ErrCompacted.
	p.Truncate(3)
	if _, err := tail.ReadBlocking(0, 10, nil); !errors.Is(err, ErrCompacted) {
		t.Fatalf("compacted read err = %v, want ErrCompacted", err)
	}
	// Out-of-range partitions error without killing the connection.
	if _, err := NewRemoteTail(c, 9).ReadBlocking(0, 1, nil); err == nil {
		t.Fatal("read of unknown partition succeeded")
	}
	// So does a request that is not the fixed layout.
	var se *transport.StatusError
	if _, err := c.Call(shipMethod, []byte("short")); !errors.As(err, &se) || se.Code != transport.StatusBadRequest {
		t.Fatalf("malformed request err = %v, want a bad-request status", err)
	}
	if recs, err := tail.ReadBlocking(3, 0, nil); err != nil || len(recs) != 2 {
		t.Fatalf("read after errors = %v, %v", recs, err)
	}
}

// TestShippingSplitsLargeReads: a read whose records would not fit one
// reply comes back as a shorter run, and the tail still sees every record.
func TestShippingSplitsLargeReads(t *testing.T) {
	l := NewLog(1)
	const n, size = 12, 1 << 20
	for i := 0; i < n; i++ {
		if _, err := l.Partition(0).Append(bytes.Repeat([]byte{byte(i)}, size)); err != nil {
			t.Fatal(err)
		}
	}
	srv := transport.NewServer()
	RegisterShipping(srv, l)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := transport.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tail := NewRemoteTail(c, 0)
	var next int64
	for reads := 0; next < n; reads++ {
		recs, err := tail.ReadBlocking(next, 100, nil)
		if err != nil || len(recs) == 0 {
			t.Fatalf("read at %d = %d records, %v", next, len(recs), err)
		}
		if reads == 0 && len(recs) == n {
			t.Fatalf("one reply carried all %d MiB", n)
		}
		for _, r := range recs {
			if r.Offset != next || len(r.Data) != size || r.Data[0] != byte(next) || r.Data[size-1] != byte(next) {
				t.Fatalf("record at %d = offset %d, %d bytes", next, r.Offset, len(r.Data))
			}
			next++
		}
	}
}

func TestDecodeShippedRejectsMalformed(t *testing.T) {
	good := []byte{0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 2, 'h', 'i'}
	if recs, err := decodeShipped(good); err != nil || len(recs) != 1 || recs[0].Offset != 5 || string(recs[0].Data) != "hi" {
		t.Fatalf("decode = %v, %v", recs, err)
	}
	for cut := 1; cut < len(good); cut++ {
		if _, err := decodeShipped(good[:cut]); err == nil {
			t.Errorf("prefix of %d bytes decoded", cut)
		}
	}
	long := append(bytes.Clone(good), 0xFF)
	if _, err := decodeShipped(long); err == nil {
		t.Error("trailing byte decoded")
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

// TestShippingLongPoll: a wal.read at the head parks in the handler, on the
// partition's head watermark. An append answers it at once; closing the
// client ends the caller's wait at once; and the read left parked on the
// server holds its Close for no more than the long-poll bound.
func TestShippingLongPoll(t *testing.T) {
	l := NewLog(1)
	p := l.Partition(0)
	srv := transport.NewServer()
	RegisterShipping(srv, l)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := transport.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type out struct {
		recs []Record
		err  error
		took time.Duration
	}
	read := func() <-chan out {
		done := make(chan out, 1)
		go func() {
			start := time.Now()
			recs, err := NewRemoteTail(c, 0).ReadBlocking(p.Next(), 10, nil)
			done <- out{recs, err, time.Since(start)}
		}()
		return done
	}
	done := read()
	waitBlocked(t, &p.head, 1)
	p.Append([]byte("wake"))
	if o := <-done; o.err != nil || len(o.recs) != 1 || string(o.recs[0].Data) != "wake" {
		t.Fatalf("parked read after an append = %v, %v", o.recs, o.err)
	}

	done = read()
	waitBlocked(t, &p.head, 1)
	c.Close()
	if o := <-done; o.err == nil || o.took > shipLongPoll/2 {
		t.Fatalf("parked read on a closed client = %v, %v after %v; want an error well inside the %v bound", o.recs, o.err, o.took, shipLongPoll)
	}
	start := time.Now()
	srv.Close()
	if d := time.Since(start); d > 20*shipLongPoll {
		t.Fatalf("Close waited %v for a parked wal.read, bound %v", d, shipLongPoll)
	}
}
