package waterwheel

import (
	"encoding/json"
	"net/http"

	"waterwheel/internal/telemetry"
)

// DebugHandler returns the deployment's live introspection surface:
//
//	/metrics          — Prometheus text exposition of every registered metric
//	/debug/waterwheel — JSON snapshot: stats, per-server state, recent traces
//
// Mount it on any mux or serve it directly; cmd/waterwheel exposes it with
// the -http flag.
func (db *DB) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", db.c.Telemetry().PrometheusHandler())
	mux.HandleFunc("/debug/waterwheel", db.serveDebug)
	return mux
}

// debugIndexServer is one indexing server's introspection row.
type debugIndexServer struct {
	ID              int     `json:"id"`
	Ingested        int64   `json:"ingested"`
	Flushes         int64   `json:"flushes"`
	MemTuples       int     `json:"mem_tuples"`
	MemBytes        int64   `json:"mem_bytes"`
	Skewness        float64 `json:"skewness"`
	WatermarkMillis int64   `json:"watermark_millis"`
}

// debugQueryServer is one query server's introspection row.
type debugQueryServer struct {
	ID             int   `json:"id"`
	Node           int   `json:"node"`
	Executed       int64 `json:"executed"`
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEvictions int64 `json:"cache_evictions"`
	CacheUsedBytes int64 `json:"cache_used_bytes"`
	CacheEntries   int   `json:"cache_entries"`
}

// debugSnapshot is the /debug/waterwheel document.
type debugSnapshot struct {
	Stats         Stats                      `json:"stats"`
	IndexServers  []debugIndexServer         `json:"index_servers"`
	QueryServers  []debugQueryServer         `json:"query_servers"`
	SchemaVersion int64                      `json:"schema_version"`
	Metrics       []telemetry.MetricSnapshot `json:"metrics,omitempty"`
	Traces        []string                   `json:"traces,omitempty"`
}

func (db *DB) serveDebug(w http.ResponseWriter, _ *http.Request) {
	snap := debugSnapshot{
		Stats:         db.Stats(),
		SchemaVersion: db.c.Metadata().Schema().Version,
		Metrics:       db.c.Telemetry().Snapshot(),
	}
	for _, srv := range db.c.IndexServers() {
		if srv == nil { // retired slot
			continue
		}
		snap.IndexServers = append(snap.IndexServers, debugIndexServer{
			ID:              srv.ID(),
			Ingested:        srv.Stats().Ingested.Load(),
			Flushes:         srv.Stats().Flushes.Load(),
			MemTuples:       srv.MemLen(),
			MemBytes:        srv.MemBytes(),
			Skewness:        srv.SkewnessFactor(),
			WatermarkMillis: int64(srv.Watermark()),
		})
	}
	for _, qs := range db.c.QueryServers() {
		cm := qs.CacheMetrics()
		snap.QueryServers = append(snap.QueryServers, debugQueryServer{
			ID:             qs.ID(),
			Node:           qs.Node(),
			Executed:       qs.Executed(),
			CacheHits:      cm.Hits,
			CacheMisses:    cm.Misses,
			CacheEvictions: cm.Evictions,
			CacheUsedBytes: cm.Used,
			CacheEntries:   cm.Entries,
		})
	}
	for _, tr := range db.c.TraceRing().Recent() {
		snap.Traces = append(snap.Traces, tr.Format())
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(snap)
}
