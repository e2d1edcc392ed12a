// Durable demonstrates the persistence layer: a store opened over a data
// directory, killed mid-stream, and reopened — flushed chunks come back
// from the chunk store, the unflushed tail replays from the WAL, and the
// partitioning schema survives (paper §V, with on-disk substrates standing
// in for HDFS/Kafka/ZooKeeper).
package main

import (
	"fmt"
	"log"
	"os"

	"waterwheel"
)

func main() {
	dir, err := os.MkdirTemp("", "waterwheel-durable")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// First incarnation: ingest, flush some chunks, close (which flushes
	// the rest: every flush commit is durable when it lands).
	db, err := waterwheel.Open(waterwheel.Options{DataDir: dir, ChunkBytes: 64 << 10})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 50_000; i++ {
		db.Insert(waterwheel.Tuple{
			Key:     waterwheel.Key(uint64(i%1000) << 50),
			Time:    waterwheel.Timestamp(i),
			Payload: []byte{byte(i)},
		})
	}
	db.Drain()
	st := db.Stats()
	fmt.Printf("first run: ingested=%d chunks=%d buffered=%d\n", st.Ingested, st.Chunks, st.Buffered)
	if err := db.Close(); err != nil { // flushes
		log.Fatal(err)
	}

	// Second incarnation: everything is back.
	db2, err := waterwheel.Open(waterwheel.Options{DataDir: dir, ChunkBytes: 64 << 10})
	if err != nil {
		log.Fatal(err)
	}
	defer db2.Close()
	db2.Drain()
	res, err := db2.QueryRange(waterwheel.FullKeyRange(), waterwheel.FullTimeRange())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after restart: %d/50000 tuples visible, %d chunks on disk\n",
		len(res.Tuples), db2.Stats().Chunks)

	// Retention: drop the first half of history.
	dropped := db2.DropBefore(25_000)
	res, _ = db2.QueryRange(waterwheel.FullKeyRange(), waterwheel.FullTimeRange())
	fmt.Printf("after retention (t<25000): dropped %d chunks, %d tuples remain\n",
		dropped, len(res.Tuples))
}
