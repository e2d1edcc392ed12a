package lru

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestFlightGroupDedupsConcurrentCallers(t *testing.T) {
	var g FlightGroup[string]
	var execs atomic.Int64
	gate := make(chan struct{})
	entered := make(chan struct{})

	const callers = 8
	var wg sync.WaitGroup
	var sharedCount atomic.Int64
	var once sync.Once
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err, shared := g.Do("k", func() (any, error) {
				once.Do(func() { close(entered) })
				<-gate
				execs.Add(1)
				return 42, nil
			})
			if err != nil {
				t.Errorf("unexpected error: %v", err)
			}
			if v.(int) != 42 {
				t.Errorf("value = %v, want 42", v)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	// Wait until the leader is inside fn, then a moment for followers to
	// queue up, then release. Followers that arrive after release still
	// either join the live flight or run their own fn; the gate only makes
	// the shared path overwhelmingly likely, the exec count is the real
	// assertion target below.
	<-entered
	close(gate)
	wg.Wait()
	if e := execs.Load(); e < 1 || e > callers {
		t.Fatalf("fn executed %d times", e)
	}
	if sharedCount.Load()+execs.Load() != callers {
		t.Fatalf("shared (%d) + leaders (%d) != callers (%d)",
			sharedCount.Load(), execs.Load(), callers)
	}
}

func TestFlightGroupErrorsShared(t *testing.T) {
	var g FlightGroup[string]
	wantErr := errors.New("boom")
	gate := make(chan struct{})
	entered := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]error, 4)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, results[0], _ = g.Do("k", func() (any, error) {
			close(entered)
			<-gate
			return nil, wantErr
		})
	}()
	<-entered
	for i := 1; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, results[i], _ = g.Do("k", func() (any, error) { return nil, wantErr })
		}(i)
	}
	close(gate)
	wg.Wait()
	for i, err := range results {
		if !errors.Is(err, wantErr) {
			t.Errorf("caller %d error = %v, want %v", i, err, wantErr)
		}
	}
}

func TestFlightGroupKeyForgottenAfterReturn(t *testing.T) {
	var g FlightGroup[string]
	var execs int
	for i := 0; i < 3; i++ {
		_, _, shared := g.Do("k", func() (any, error) { execs++; return nil, nil })
		if shared {
			t.Fatalf("sequential call %d reported shared", i)
		}
	}
	if execs != 3 {
		t.Fatalf("sequential calls executed fn %d times, want 3", execs)
	}
}
