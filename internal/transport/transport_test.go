package transport

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func newPair(t *testing.T) (*Server, *Client) {
	t.Helper()
	s := NewServer()
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return s, c
}

func TestCallRoundTrip(t *testing.T) {
	s, c := newPair(t)
	s.Handle("echo", func(p []byte) ([]byte, error) { return p, nil })
	got, err := c.Call("echo", []byte("hello"))
	if err != nil || string(got) != "hello" {
		t.Fatalf("Call = %q, %v", got, err)
	}
}

func TestHandlerError(t *testing.T) {
	s, c := newPair(t)
	s.Handle("boom", func([]byte) ([]byte, error) { return nil, errors.New("kapow") })
	_, err := c.Call("boom", nil)
	if err == nil || err.Error() != "kapow" {
		t.Fatalf("err = %v", err)
	}
	// The connection survives handler errors.
	s.Handle("ok", func([]byte) ([]byte, error) { return []byte("fine"), nil })
	got, err := c.Call("ok", nil)
	if err != nil || string(got) != "fine" {
		t.Fatalf("after error: %q, %v", got, err)
	}
}

func TestUnknownMethod(t *testing.T) {
	_, c := newPair(t)
	_, err := c.Call("nope", nil)
	if err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("err = %v", err)
	}
}

func TestConcurrentCallsMultiplex(t *testing.T) {
	s, c := newPair(t)
	s.Handle("slowEcho", func(p []byte) ([]byte, error) {
		if string(p) == "slow" {
			time.Sleep(50 * time.Millisecond)
		}
		return p, nil
	})
	var wg sync.WaitGroup
	start := time.Now()
	results := make([]string, 20)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := "fast"
			if i == 0 {
				msg = "slow"
			}
			got, err := c.Call("slowEcho", []byte(msg))
			if err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			results[i] = string(got)
		}(i)
	}
	wg.Wait()
	// The slow call must not serialize the fast ones: total << 20*50ms.
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("calls appear serialized: %v", elapsed)
	}
	for i, r := range results {
		want := "fast"
		if i == 0 {
			want = "slow"
		}
		if r != want {
			t.Errorf("result %d = %q (response mismatched to request?)", i, r)
		}
	}
}

func TestManyClientsOneServer(t *testing.T) {
	s := NewServer()
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var calls sync.Map
	s.Handle("mark", func(p []byte) ([]byte, error) {
		calls.Store(string(p), true)
		return p, nil
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			for i := 0; i < 50; i++ {
				msg := fmt.Sprintf("g%d-%d", g, i)
				if got, err := c.Call("mark", []byte(msg)); err != nil || string(got) != msg {
					t.Errorf("call: %q %v", got, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	n := 0
	calls.Range(func(any, any) bool { n++; return true })
	if n != 400 {
		t.Errorf("server saw %d calls, want 400", n)
	}
}

func TestCallAfterClose(t *testing.T) {
	_, c := newPair(t)
	c.Close()
	if _, err := c.Call("x", nil); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestServerCloseFailsInFlight(t *testing.T) {
	s := NewServer()
	addr, _ := s.Listen("127.0.0.1:0")
	s.Handle("echo", func(p []byte) ([]byte, error) { return p, nil })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call("echo", []byte("x")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Further calls fail once the connection drops (may take one call to
	// notice).
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := c.Call("echo", []byte("x")); err != nil {
			return
		}
	}
	t.Fatal("calls kept succeeding after server close")
}

func TestLargePayload(t *testing.T) {
	s, c := newPair(t)
	s.Handle("echo", func(p []byte) ([]byte, error) { return p, nil })
	big := make([]byte, 4<<20)
	for i := range big {
		big[i] = byte(i)
	}
	got, err := c.Call("echo", big)
	if err != nil || len(got) != len(big) {
		t.Fatalf("big echo: %d bytes, %v", len(got), err)
	}
	for i := 0; i < len(big); i += 100_003 {
		if got[i] != big[i] {
			t.Fatalf("payload corrupted at %d", i)
		}
	}
}

func TestStatusErrorCrossesTheWire(t *testing.T) {
	s, c := newPair(t)
	s.Handle("typed", func([]byte) ([]byte, error) {
		return nil, &StatusError{Code: StatusApp + 3, Msg: "nope", Payload: []byte{7, 8}}
	})
	s.Handle("wrapped", func([]byte) ([]byte, error) {
		return nil, fmt.Errorf("outer: %w", &StatusError{Code: StatusBadRequest, Msg: "inner"})
	})
	_, err := c.Call("typed", nil)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != StatusApp+3 || se.Msg != "nope" || string(se.Payload) != "\x07\x08" {
		t.Fatalf("typed: %#v", err)
	}
	// The code of a wrapped StatusError crosses with the outer message.
	_, err = c.Call("wrapped", nil)
	if !errors.As(err, &se) || se.Code != StatusBadRequest || se.Msg != "outer: inner" {
		t.Fatalf("wrapped: %#v", err)
	}
	_, err = c.Call("nope", nil)
	if !errors.As(err, &se) || se.Code != StatusUnknownMethod {
		t.Fatalf("unknown method: %#v", err)
	}
	// One table at both ends turns a sentinel into a code and back.
	sentinel := errors.New("sentinel")
	codes := Sentinels{StatusApp + 5: sentinel}
	s.Handle("sentinel", func([]byte) ([]byte, error) {
		return nil, codes.Encode(fmt.Errorf("wrapped: %w", sentinel))
	})
	s.Handle("plain", func([]byte) ([]byte, error) { return nil, codes.Encode(errors.New("plain")) })
	_, err = c.Call("sentinel", nil)
	if err = codes.Decode(err); !errors.Is(err, sentinel) || err.Error() != "wrapped: sentinel" {
		t.Fatalf("sentinel came back as %v", err)
	}
	_, err = c.Call("plain", nil)
	if err = codes.Decode(err); errors.Is(err, sentinel) || !errors.As(err, &se) || se.Code != StatusFailed {
		t.Fatalf("plain error came back as %#v", err)
	}
}

// TestOversizeResponseIsRefusedNotDropped: a handler result that cannot be
// framed comes back as an error instead of leaving the caller waiting.
func TestOversizeResponseIsRefusedNotDropped(t *testing.T) {
	s, c := newPair(t)
	s.Handle("huge", func([]byte) ([]byte, error) { return make([]byte, MaxFrameBytes), nil })
	if _, err := c.Call("huge", nil); err == nil || !strings.Contains(err.Error(), "too large") {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.Call("huge", make([]byte, MaxFrameBytes)); err == nil {
		t.Fatal("oversize request accepted")
	}
	s.Handle("ok", func(p []byte) ([]byte, error) { return p, nil })
	if got, err := c.Call("ok", []byte("x")); err != nil || string(got) != "x" {
		t.Fatalf("after oversize: %q, %v", got, err)
	}
}
