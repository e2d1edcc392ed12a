package waterwheel

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// returns fails the test if f has not returned after 10 s: these calls used
// to hang for good.
func returns(t *testing.T, what string, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return", what)
		return nil
	}
}

// TestDrainAfterStopReturnsErrClosed: Close(); Drain() is ErrClosed, in
// process and as a wire drain that lands on a closed DB — which used to
// park its handler for ever and wedge NetServer.Close behind it.
func TestDrainAfterStopReturnsErrClosed(t *testing.T) {
	db, cl, _ := netFixture(t, Options{}, 10)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := returns(t, "Drain after Close", db.Drain); !errors.Is(err, ErrClosed) {
		t.Fatalf("Drain after Close = %v, want ErrClosed", err)
	}
	if err := returns(t, "Flush after Close", db.Flush); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after Close = %v, want ErrClosed", err)
	}
	if err := returns(t, "wire drain after Close", cl.Drain); !errors.Is(err, ErrClosed) {
		t.Fatalf("wire drain after Close = %v, want ErrClosed", err)
	}
	if err := returns(t, "wire flush after Close", cl.Flush); !errors.Is(err, ErrClosed) {
		t.Fatalf("wire flush after Close = %v, want ErrClosed", err)
	}
}

// TestDrainReportsDeadConsumer: one undecodable record stops its slot's
// consumer while inserts keep being acked from the log. Drain says so — the
// consumer's error, in process and over TCP — instead of hanging, and the
// network server still closes.
func TestDrainReportsDeadConsumer(t *testing.T) {
	db := openTestDB(t, Options{})
	ns, err := db.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(ns.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Insert(Tuple{Key: 1, Time: 1}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Cluster().WAL().Partition(0).Append([]byte("not a tuple")); err != nil {
		t.Fatal(err)
	}
	err = returns(t, "Drain behind a dead consumer", db.Drain)
	if err == nil || !strings.Contains(err.Error(), "bad record at offset 1") {
		t.Fatalf("Drain behind a dead consumer = %v, want the decode failure", err)
	}
	werr := returns(t, "wire drain behind a dead consumer", cl.Drain)
	if werr == nil || werr.Error() != err.Error() {
		t.Fatalf("wire drain = %v, want %v", werr, err)
	}
	if err := cl.Insert(Tuple{Key: 2, Time: 2}); err != nil {
		t.Fatalf("insert into the dead consumer's slot is still acked from the log: %v", err)
	}
	returns(t, "NetServer.Close", func() error { ns.Close(); return nil })
	if err := returns(t, "Close", db.Close); err == nil || !strings.Contains(err.Error(), "bad record") {
		t.Fatalf("Close over unapplied acked tuples = %v, want the consumer's error", err)
	}
}
