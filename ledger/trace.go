package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"waterwheel/internal/telemetry"
)

// span is one traced interval. Times are nanoseconds since the recorder
// started; Parent 0 means a root.
type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent"`
	Name   string           `json:"name"`
	Kind   string           `json:"kind,omitempty"`
	Req    int64            `json:"req"`
	Due    int64            `json:"due_ns,omitempty"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// recorder keeps spans in memory, one log per goroutine so recording takes
// no lock, and writes them once at exit. A nil recorder records nothing.
type recorder struct {
	t0   time.Time
	ids  atomic.Int64
	root int64
	logs []*spanLog
}

type spanLog struct {
	r     *recorder
	spans []span
}

// newRecorder starts a recorder with `logs` independent logs and a root
// span named after the workload.
func newRecorder(workload string, logs int) *recorder {
	r := &recorder{t0: time.Now()}
	for i := 0; i < logs; i++ {
		r.logs = append(r.logs, &spanLog{r: r})
	}
	r.root = r.ids.Add(1)
	r.logs[0].spans = append(r.logs[0].spans, span{ID: r.root, Name: workload})
	return r
}

func (r *recorder) log(i int) *spanLog {
	if r == nil {
		return nil
	}
	return r.logs[i]
}

func (r *recorder) since(t time.Time) int64 { return t.Sub(r.t0).Nanoseconds() }

// op records a harness span under the workload root and returns its id.
func (l *spanLog) op(name, kind string, req int64, due, start, end time.Time, tuples int64) int64 {
	if l == nil {
		return 0
	}
	return l.add(l.r.root, name, kind, req, l.r.since(due), l.r.since(start), l.r.since(end), map[string]int64{"tuples": tuples})
}

func (l *spanLog) add(parent int64, name, kind string, req, due, start, end int64, counts map[string]int64) int64 {
	id := l.r.ids.Add(1)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Kind: kind, Req: req, Due: due, Start: start, End: end, Counts: counts})
	return id
}

// attach hangs a program span tree (from QueryTraced) under parent. The
// tree's clock readings crossed the wire as wall-clock times, so children
// are clamped into their parent's interval.
func (l *spanLog) attach(parent, req int64, lo, hi int64, s *telemetry.Span) {
	if l == nil || s == nil {
		return
	}
	start := clamp(l.r.since(s.Start), lo, hi)
	end := clamp(start+s.Dur.Nanoseconds(), start, hi)
	var counts map[string]int64
	for _, a := range s.Attrs {
		if a.Str == "" {
			if counts == nil {
				counts = map[string]int64{}
			}
			counts[a.Key] = a.Value
		}
	}
	id := l.add(parent, s.Name, "", req, 0, start, end, counts)
	for _, c := range s.Children {
		l.attach(id, req, start, end, c)
	}
}

func clamp(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// all returns every span, the root closed at `end`.
func (r *recorder) all(end time.Time) []span {
	var out []span
	for _, l := range r.logs {
		out = append(out, l.spans...)
	}
	for i := range out {
		if out[i].ID == r.root {
			out[i].End = r.since(end)
		}
	}
	return out
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (children may run in parallel, so
// the cover is the union of their intervals).
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][]int{}
	for i := range spans {
		if spans[i].Parent != 0 {
			kids[spans[i].Parent] = append(kids[spans[i].Parent], i)
		}
	}
	self := make(map[int64]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := clamp(spans[k].Start, edge, s.End), clamp(spans[k].End, edge, s.End)
			covered += hi - lo
			if hi > edge {
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}
