// Package stats provides the small measurement toolkit the experiment
// harness uses: latency recorders with percentiles, and rate and formatting
// helpers for the tables in EXPERIMENTS.md.
package stats

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Recorder collects duration samples and reports order statistics. The
// sorted order is computed lazily and cached, so a burst of Percentile
// calls between recordings sorts once; the running sum makes Mean O(1).
type Recorder struct {
	mu      sync.Mutex
	samples []time.Duration
	sum     time.Duration
	sorted  bool
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record adds one sample.
func (r *Recorder) Record(d time.Duration) {
	r.mu.Lock()
	r.samples = append(r.samples, d)
	r.sum += d
	r.sorted = false
	r.mu.Unlock()
}

// Count returns the number of samples.
func (r *Recorder) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.samples)
}

func (r *Recorder) ensureSortedLocked() {
	if !r.sorted {
		sort.Slice(r.samples, func(i, j int) bool { return r.samples[i] < r.samples[j] })
		r.sorted = true
	}
}

// percentileLocked returns the p-th percentile assuming the lock is held
// and the samples are sorted.
func (r *Recorder) percentileLocked(p float64) time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	if p <= 0 {
		return r.samples[0]
	}
	if p >= 100 {
		return r.samples[len(r.samples)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(r.samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	return r.samples[rank]
}

// Percentile returns the p-th percentile (p in [0,100]) using
// nearest-rank; zero when empty.
func (r *Recorder) Percentile(p float64) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ensureSortedLocked()
	return r.percentileLocked(p)
}

// Mean returns the arithmetic mean; zero when empty.
func (r *Recorder) Mean() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.samples) == 0 {
		return 0
	}
	return r.sum / time.Duration(len(r.samples))
}

// Min and Max return the extremes; zero when empty.
func (r *Recorder) Min() time.Duration { return r.Percentile(0) }

// Max returns the largest sample; zero when empty.
func (r *Recorder) Max() time.Duration { return r.Percentile(100) }

// Rate computes a throughput given a count and elapsed wall time.
func Rate(count int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(count) / elapsed.Seconds()
}

// HumanRate renders a rate as, e.g., "1.52M/s" or "48.3K/s".
func HumanRate(perSec float64) string {
	switch {
	case perSec >= 1e6:
		return fmt.Sprintf("%.2fM/s", perSec/1e6)
	case perSec >= 1e3:
		return fmt.Sprintf("%.1fK/s", perSec/1e3)
	default:
		return fmt.Sprintf("%.0f/s", perSec)
	}
}
