package bench

import (
	"sync"
	"testing"
	"time"
)

func TestRecorderPercentiles(t *testing.T) {
	r := &recorder{}
	for i := 1; i <= 100; i++ {
		r.Record(time.Duration(i) * time.Millisecond)
	}
	if got := r.Percentile(50); got != 50*time.Millisecond {
		t.Errorf("p50 = %v", got)
	}
	if got := r.Percentile(99); got != 99*time.Millisecond {
		t.Errorf("p99 = %v", got)
	}
	if got := r.Percentile(0); got != 1*time.Millisecond {
		t.Errorf("min = %v", got)
	}
	if got := r.Percentile(100); got != 100*time.Millisecond {
		t.Errorf("max = %v", got)
	}
	if got := r.Mean(); got != 50500*time.Microsecond {
		t.Errorf("mean = %v", got)
	}
}

func TestRecorderEmpty(t *testing.T) {
	r := &recorder{}
	if r.Percentile(50) != 0 || r.Mean() != 0 || len(r.samples) != 0 {
		t.Error("empty recorder should report zeros")
	}
}

func TestRecorderInterleavedRecordAndRead(t *testing.T) {
	r := &recorder{}
	r.Record(5 * time.Millisecond)
	_ = r.Percentile(50) // sorts
	r.Record(1 * time.Millisecond)
	if got := r.Percentile(0); got != 1*time.Millisecond {
		t.Errorf("min after re-record = %v", got)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := &recorder{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Record(time.Duration(i) * time.Microsecond)
				if i%100 == 0 {
					_ = r.Percentile(90)
				}
			}
		}()
	}
	wg.Wait()
	if len(r.samples) != 8000 {
		t.Errorf("count = %d", len(r.samples))
	}
}

func TestRateAndHumanRate(t *testing.T) {
	if got := perSecond(1000, time.Second); got != 1000 {
		t.Errorf("Rate = %f", got)
	}
	if got := perSecond(1000, 0); got != 0 {
		t.Errorf("zero-elapsed Rate = %f", got)
	}
	cases := map[float64]string{
		1_520_000: "1.52M/s",
		48_300:    "48.3K/s",
		12:        "12/s",
	}
	for in, want := range cases {
		if got := humanRate(in); got != want {
			t.Errorf("HumanRate(%f) = %q, want %q", in, got, want)
		}
	}
}
