package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span. Exactly one of Value and
// Str is meaningful; Str wins when non-empty.
type Attr struct {
	Key   string
	Value int64  `json:",omitempty"`
	Str   string `json:",omitempty"`
}

// Span is one timed step of a query's execution. Spans form a tree; the
// coordinator holds the root and hands children to the stages it drives.
// All methods are nil-safe so untraced execution pays only the nil checks.
// Exported fields cross the wire as JSON (QueryTrace); the mutex guards
// concurrent child/attr appends during execution and is not encoded.
type Span struct {
	Name     string
	Start    time.Time
	Dur      time.Duration
	Attrs    []Attr  `json:",omitempty"`
	Children []*Span `json:",omitempty"`

	mu sync.Mutex
}

// StartSpan begins a root span.
func StartSpan(name string) *Span {
	return &Span{Name: name, Start: time.Now()}
}

// StartChild begins a child span, attaching it to s. Safe to call from
// concurrent goroutines; returns nil when s is nil.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{Name: name, Start: time.Now()}
	s.mu.Lock()
	s.Children = append(s.Children, c)
	s.mu.Unlock()
	return c
}

// End fixes the span's duration. Later calls keep the first duration.
func (s *Span) End() {
	if s == nil || s.Dur != 0 {
		return
	}
	s.Dur = time.Since(s.Start)
}

// SetInt annotates the span with an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: v})
	s.mu.Unlock()
}

// SetStr annotates the span with a string attribute.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.Attrs = append(s.Attrs, Attr{Key: key, Str: v})
	s.mu.Unlock()
}

// Find returns the first descendant span (depth-first, including s) with
// the given name, or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.Name == name {
		return s
	}
	s.mu.Lock()
	children := append([]*Span(nil), s.Children...)
	s.mu.Unlock()
	for _, c := range children {
		if f := c.Find(name); f != nil {
			return f
		}
	}
	return nil
}

// QueryTrace is the recoverable execution trace of one query — the span
// tree the coordinator built while executing it, plus identifying
// metadata. It crosses the wire as JSON for the `trace` RPC verb.
type QueryTrace struct {
	QueryID uint64
	Policy  string
	Root    *Span
}

// Format renders the span tree as an indented text tree:
//
//	query 1.23ms subqueries=4
//	├─ decompose 11µs mem=1 chunk=3
//	├─ chunk_dispatch 1.1ms policy=lada
//	│  ├─ chunk_subquery 810µs chunk=3 server=2 leaves_read=4 bloom_skipped=12
//	└─ merge_sort 38µs
func (t *QueryTrace) Format() string {
	if t == nil || t.Root == nil {
		return "(no trace)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace query=%d policy=%s\n", t.QueryID, t.Policy)
	writeSpan(&b, t.Root, "", true, true)
	return b.String()
}

func writeSpan(b *strings.Builder, s *Span, prefix string, last, root bool) {
	s.mu.Lock()
	attrs := append([]Attr(nil), s.Attrs...)
	children := append([]*Span(nil), s.Children...)
	s.mu.Unlock()
	// Children may finish out of order (parallel fan-out); present them by
	// start time so the tree reads chronologically.
	sort.SliceStable(children, func(i, j int) bool { return children[i].Start.Before(children[j].Start) })

	if !root {
		connector := "├─ "
		if last {
			connector = "└─ "
		}
		b.WriteString(prefix)
		b.WriteString(connector)
	}
	fmt.Fprintf(b, "%s %s", s.Name, s.Dur.Round(time.Microsecond))
	for _, a := range attrs {
		if a.Str != "" {
			fmt.Fprintf(b, " %s=%s", a.Key, a.Str)
		} else {
			fmt.Fprintf(b, " %s=%d", a.Key, a.Value)
		}
	}
	b.WriteByte('\n')
	childPrefix := prefix
	if !root {
		if last {
			childPrefix += "   "
		} else {
			childPrefix += "│  "
		}
	}
	for i, c := range children {
		writeSpan(b, c, childPrefix, i == len(children)-1, false)
	}
}

// TraceRing keeps the most recent query traces for the introspection
// endpoint. Safe for concurrent use.
type TraceRing struct {
	mu     sync.Mutex
	traces []*QueryTrace
	next   int
	cap    int
}

// NewTraceRing creates a ring holding up to n traces (n <= 0 picks 16).
func NewTraceRing(n int) *TraceRing {
	if n <= 0 {
		n = 16
	}
	return &TraceRing{cap: n}
}

// Add records a trace, evicting the oldest past capacity. Nil-safe.
func (r *TraceRing) Add(t *QueryTrace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	if len(r.traces) < r.cap {
		r.traces = append(r.traces, t)
	} else {
		r.traces[r.next] = t
	}
	r.next = (r.next + 1) % r.cap
	r.mu.Unlock()
}

// Recent returns the retained traces, oldest first.
func (r *TraceRing) Recent() []*QueryTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*QueryTrace, 0, len(r.traces))
	if len(r.traces) == r.cap {
		out = append(out, r.traces[r.next:]...)
		out = append(out, r.traces[:r.next]...)
	} else {
		out = append(out, r.traces...)
	}
	return out
}
