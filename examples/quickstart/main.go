// Quickstart: open an embedded Waterwheel, ingest a small stream, and run
// temporal range queries over fresh and flushed data.
package main

import (
	"fmt"
	"log"

	"waterwheel"
)

func main() {
	db, err := waterwheel.Open(waterwheel.Options{
		ChunkBytes: 1 << 20, // small chunks so the demo flushes
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Ingest 100k sensor readings: key = sensor id, payload = reading.
	const sensors = 1000
	for i := 0; i < 100_000; i++ {
		db.Insert(waterwheel.Tuple{
			Key:     waterwheel.Key(i % sensors),
			Time:    waterwheel.Timestamp(i / 100), // ~100 readings/ms
			Payload: []byte(fmt.Sprintf("reading-%d", i)),
		})
	}

	// Key + time range query: sensors 100-199 in the window [500, 600] ms.
	// Every reading acked above is in its answer: a query first waits until
	// what was acked before it is applied.
	res, err := db.QueryRange(
		waterwheel.KeyRange{Lo: 100, Hi: 199},
		waterwheel.TimeRange{Lo: 500, Hi: 600},
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("range query: %d tuples via %d subqueries (%d leaves read, %d pruned)\n",
		len(res.Tuples), res.SubQueries, res.LeavesRead, res.LeavesSkipped)

	// Add a predicate: only sensor ids divisible by 10.
	res, err = db.Query(waterwheel.Query{
		Keys:   waterwheel.KeyRange{Lo: 100, Hi: 199},
		Times:  waterwheel.TimeRange{Lo: 500, Hi: 600},
		Filter: waterwheel.KeyMod(10, 0),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("filtered query: %d tuples\n", len(res.Tuples))

	// Force a flush and show the same query served from chunks.
	db.Flush()
	res, err = db.QueryRange(
		waterwheel.KeyRange{Lo: 100, Hi: 199},
		waterwheel.TimeRange{Lo: 500, Hi: 600},
	)
	if err != nil {
		log.Fatal(err)
	}
	st := db.Stats()
	fmt.Printf("after flush: %d tuples from %d chunks (%d bytes read)\n",
		len(res.Tuples), st.Chunks, res.BytesRead)
}
