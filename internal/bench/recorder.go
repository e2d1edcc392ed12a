package bench

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// recorder collects duration samples and reports exact order statistics
// (every sample kept, nearest-rank percentiles) for the tables in
// EXPERIMENTS.md. It is not internal/telemetry's histogram on purpose: those
// buckets are 2x wide, which is right for a live system and would blur the
// figure tables' medians. The sorted order is computed lazily and cached, so
// a burst of Percentile calls between recordings sorts once; the running sum
// makes Mean O(1).
type recorder struct {
	mu      sync.Mutex
	samples []time.Duration
	sum     time.Duration
	sorted  bool
}

// Record adds one sample.
func (r *recorder) Record(d time.Duration) {
	r.mu.Lock()
	r.samples = append(r.samples, d)
	r.sum += d
	r.sorted = false
	r.mu.Unlock()
}

// Percentile returns the p-th percentile (p in [0,100]) using
// nearest-rank; zero when empty.
func (r *recorder) Percentile(p float64) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.sorted {
		sort.Slice(r.samples, func(i, j int) bool { return r.samples[i] < r.samples[j] })
		r.sorted = true
	}
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

// Mean returns the arithmetic mean; zero when empty.
func (r *recorder) Mean() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.samples) == 0 {
		return 0
	}
	return r.sum / time.Duration(len(r.samples))
}

// perSecond computes a throughput given a count and elapsed wall time.
func perSecond(count int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(count) / elapsed.Seconds()
}

// humanRate renders a rate as, e.g., "1.52M/s" or "48.3K/s".
func humanRate(perSec float64) string {
	switch {
	case perSec >= 1e6:
		return fmt.Sprintf("%.2fM/s", perSec/1e6)
	case perSec >= 1e3:
		return fmt.Sprintf("%.1fK/s", perSec/1e3)
	default:
		return fmt.Sprintf("%.0f/s", perSec)
	}
}
