// Package telemetry is Waterwheel's zero-dependency runtime observability
// subsystem: a metrics registry of lock-free counters, gauges and
// fixed-bucket latency histograms cheap enough to leave on in the insert
// hot path, per-query trace spans (an EXPLAIN ANALYZE for the
// coordinator → dispatch → chunk-read pipeline), and exposition in
// Prometheus text format and JSON.
//
// Every metric handle is nil-safe: a nil *Counter, *Gauge, *Histogram or
// *Span is a no-op, so instrumented code never branches on a handle. A
// deployment always has a registry; methods on a nil *Registry return nil
// handles, which is how a component built on its own — in a unit test or
// a benchmark leg — runs uninstrumented, and how an untraced query (a nil
// root span) builds no trace.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing lock-free counter. The zero value
// is ready to use; a nil Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n should be non-negative for Prometheus semantics).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for a nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a lock-free float64 gauge. The zero value is ready to use; a
// nil Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Add atomically adds delta (may be negative) — the up/down gauge used for
// occupancy-style metrics such as busy workers or inflight reads.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the stored value (0 for a nil Gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// metric kinds, for exposition.
const (
	kindCounter = "counter"
	kindGauge   = "gauge"
	kindSummary = "summary" // histograms expose as Prometheus summaries
)

// metric is one registered series. Exactly one of the value sources is
// set; fn-backed series are evaluated at exposition time.
type metric struct {
	name   string // full series name, possibly with {labels}
	base   string // name with the label block stripped
	labels string // inner label text ("" when unlabelled)
	help   string
	kind   string

	counter   *Counter
	counterFn func() int64
	gauge     *Gauge
	gaugeFn   func() float64
	hist      *Histogram
}

func (m *metric) value() float64 {
	switch {
	case m.counter != nil:
		return float64(m.counter.Value())
	case m.counterFn != nil:
		return float64(m.counterFn())
	case m.gauge != nil:
		return m.gauge.Value()
	case m.gaugeFn != nil:
		return m.gaugeFn()
	}
	return 0
}

// Registry holds named metrics. Registration is idempotent: registering a
// name twice returns the existing handle (the kinds must match).
// Registration takes a lock; the returned handles are lock-free. A nil
// *Registry returns nil handles from every constructor.
type Registry struct {
	mu      sync.Mutex
	ordered []*metric
	byName  map[string]*metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// splitName separates `base{labels}` into its parts.
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// register adds m under its name, or returns the already-registered
// metric of the same name after checking the kind matches.
func (r *Registry) register(m *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.byName[m.name]; ok {
		if old.kind != m.kind {
			panic(fmt.Sprintf("telemetry: %s re-registered as %s (was %s)", m.name, m.kind, old.kind))
		}
		return old
	}
	m.base, m.labels = splitName(m.name)
	r.ordered = append(r.ordered, m)
	r.byName[m.name] = m
	return m
}

// Counter registers (or returns the existing) counter. The name may carry
// a Prometheus label block: `waterwheel_cache_hits_total{unit="leaf"}`.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	m := r.register(&metric{name: name, help: help, kind: kindCounter, counter: &Counter{}})
	return m.counter
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — the bridge for pre-existing atomic counters.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	if r == nil {
		return
	}
	r.register(&metric{name: name, help: help, kind: kindCounter, counterFn: fn})
}

// Gauge registers (or returns the existing) settable gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	m := r.register(&metric{name: name, help: help, kind: kindGauge, gauge: &Gauge{}})
	return m.gauge
}

// GaugeFunc registers a gauge whose value is read from fn at exposition
// time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(&metric{name: name, help: help, kind: kindGauge, gaugeFn: fn})
}

// Histogram registers (or returns the existing) latency histogram. By
// convention the name should end in _seconds; observations are stored in
// nanoseconds and exposed in seconds.
func (r *Registry) Histogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	m := r.register(&metric{name: name, help: help, kind: kindSummary, hist: &Histogram{}})
	return m.hist
}

// MetricSnapshot is one metric's point-in-time value for JSON exposition.
type MetricSnapshot struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"`
	Value float64 `json:"value"`
	// Histogram is set for summary-kind metrics; Value then holds the
	// observation count.
	Histogram *HistogramSnapshot `json:"histogram,omitempty"`
}

// Snapshot returns every metric's current value, sorted by name.
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	metrics := append([]*metric(nil), r.ordered...)
	r.mu.Unlock()
	out := make([]MetricSnapshot, 0, len(metrics))
	for _, m := range metrics {
		ms := MetricSnapshot{Name: m.name, Kind: m.kind}
		if m.hist != nil {
			h := m.hist.Snapshot()
			ms.Histogram = &h
			ms.Value = float64(h.Count)
		} else {
			ms.Value = m.value()
		}
		out = append(out, ms)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
