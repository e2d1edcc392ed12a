package waterwheel

import (
	"fmt"
	"slices"
	"testing"
)

// TestRepeatedQueryReadsChunkOnce holds LADA to its cache-locality claim
// (paper §IV-C) on an idle deployment: with one flushed chunk, the same
// full-range query issued eight times back to back runs on the chunk's
// rank-0 query server every time, so only the first one reads the DFS and
// no subquery is stolen — on 1, 2 and 4 nodes of default query servers.
func TestRepeatedQueryReadsChunkOnce(t *testing.T) {
	for _, nodes := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			db := openTestDB(t, Options{Nodes: nodes})
			for i := 0; i < 2000; i++ {
				db.Insert(Tuple{Key: Key(i), Time: Timestamp(1000 + i), Payload: []byte{byte(i)}})
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			if n := db.Stats().Chunks; n != 1 {
				t.Fatalf("%d chunks flushed, want 1", n)
			}
			reads := make([]int64, 8)
			for q := range reads {
				before := db.Stats().DFSReads
				res, err := db.QueryRange(FullKeyRange(), FullTimeRange())
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Tuples) != 2000 {
					t.Fatalf("query %d returned %d tuples, want 2000", q, len(res.Tuples))
				}
				reads[q] = db.Stats().DFSReads - before
			}
			t.Logf("DFS reads per query: %v", reads)
			if reads[0] == 0 || slices.ContainsFunc(reads[1:], func(n int64) bool { return n != 0 }) {
				t.Errorf("DFS reads per query %v, want the first query alone to read", reads)
			}
			if n := db.Telemetry().Counter("waterwheel_query_stolen_subqueries_total", "").Value(); n != 0 {
				t.Errorf("%d subqueries stolen on an idle deployment, want 0", n)
			}
		})
	}
}
