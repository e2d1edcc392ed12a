package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: bucket i counts observations whose duration in
// nanoseconds satisfies upperBound(i-1) < d <= upperBound(i), with
// geometric (power-of-two) upper bounds from 256 ns up to ~2.4 h, plus an
// overflow bucket. 36 fixed buckets keep the footprint at a few hundred
// bytes per histogram while bounding the quantile estimation error to the
// bucket width (a factor of 2) — plenty for p50/p95/p99 dashboards.
const (
	histMinShift = 8 // first bucket upper bound: 1<<8 = 256 ns
	histBuckets  = 36
)

// bucketFor maps a non-negative nanosecond duration to its bucket index.
func bucketFor(nanos int64) int {
	if nanos <= 0 {
		return 0
	}
	b := bits.Len64(uint64(nanos - 1)) // smallest b with nanos <= 1<<b
	if b <= histMinShift {
		return 0
	}
	if b-histMinShift >= histBuckets {
		return histBuckets - 1
	}
	return b - histMinShift
}

// bucketUpper returns the upper bound of bucket i in nanoseconds.
func bucketUpper(i int) int64 { return int64(1) << (histMinShift + i) }

// Histogram is a lock-free fixed-bucket latency histogram. Observe is a
// single atomic increment per bucket plus two for count/sum — no
// allocations, safe for the insert hot path. The zero value is ready to
// use; a nil Histogram is a no-op.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	n := int64(d)
	if n < 0 {
		n = 0
	}
	h.buckets[bucketFor(n)].Add(1)
	h.count.Add(1)
	h.sum.Add(n)
}

// HistogramSnapshot is a point-in-time summary of a histogram. Quantiles
// are upper-bound estimates from the bucket layout (within 2x of the true
// value).
type HistogramSnapshot struct {
	Count int64         `json:"count"`
	Sum   time.Duration `json:"sum_ns"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	P99   time.Duration `json:"p99_ns"`
	Max   time.Duration `json:"max_ns"`
}

// Snapshot summarizes the histogram. Buckets are read without a global
// lock, so a snapshot taken during concurrent observation is approximate
// (off by at most the in-flight observations).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	var counts [histBuckets]int64
	var total int64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	snap := HistogramSnapshot{Count: total, Sum: time.Duration(h.sum.Load())}
	if total == 0 {
		return snap
	}
	snap.Mean = snap.Sum / time.Duration(total)
	quantile := func(q float64) time.Duration {
		target := int64(q * float64(total))
		if target < 1 {
			target = 1
		}
		var cum int64
		for i, c := range counts {
			cum += c
			if cum >= target {
				return time.Duration(bucketUpper(i))
			}
		}
		return time.Duration(bucketUpper(histBuckets - 1))
	}
	snap.P50 = quantile(0.50)
	snap.P95 = quantile(0.95)
	snap.P99 = quantile(0.99)
	for i := histBuckets - 1; i >= 0; i-- {
		if counts[i] > 0 {
			snap.Max = time.Duration(bucketUpper(i))
			break
		}
	}
	return snap
}
