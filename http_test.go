package waterwheel

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestDebugHandlerEndpoints(t *testing.T) {
	db := openTestDB(t, Options{})
	const n = 300
	for i := 0; i < n; i++ {
		db.Insert(Tuple{Key: Key(i), Time: Timestamp(1000 + i), Payload: []byte("p")})
	}
	db.Drain()
	db.Flush()
	q := Query{Keys: FullKeyRange(), Times: FullTimeRange()}
	_, tr, err := db.QueryTraced(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(db.DebugHandler())
	defer srv.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		if _, err := io.Copy(&b, resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		return b.String(), resp.Header.Get("Content-Type")
	}

	metrics, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("/metrics content type = %q", ctype)
	}
	for _, want := range []string{
		"# TYPE waterwheel_ingest_tuples_total counter",
		"waterwheel_ingest_tuples_total 300",
		"waterwheel_queries_total 2",
		`waterwheel_chunk_subquery_seconds{quantile="0.99"}`,
		"waterwheel_memtable_bytes",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}

	debug, ctype := get("/debug/waterwheel")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("/debug/waterwheel content type = %q", ctype)
	}
	var snap struct {
		Stats struct {
			Ingested int64 `json:"Ingested"`
			Chunks   int   `json:"Chunks"`
		} `json:"stats"`
		IndexServers []map[string]any `json:"index_servers"`
		QueryServers []map[string]any `json:"query_servers"`
		Traces       []string         `json:"traces"`
	}
	if err := json.Unmarshal([]byte(debug), &snap); err != nil {
		t.Fatalf("/debug/waterwheel not JSON: %v\n%s", err, debug)
	}
	if snap.Stats.Ingested != n {
		t.Errorf("debug stats.Ingested = %d, want %d", snap.Stats.Ingested, n)
	}
	if snap.Stats.Chunks == 0 {
		t.Error("debug stats.Chunks = 0 after flush")
	}
	if len(snap.IndexServers) == 0 || len(snap.QueryServers) == 0 {
		t.Errorf("debug snapshot servers: %d index, %d query",
			len(snap.IndexServers), len(snap.QueryServers))
	}
	// The traced query's span tree, and nothing for the untraced one.
	if len(snap.Traces) != 1 || snap.Traces[0] != tr.Format() || !strings.Contains(snap.Traces[0], "dispatch") {
		t.Errorf("debug snapshot traces = %q, want the traced query's alone", snap.Traces)
	}
}
