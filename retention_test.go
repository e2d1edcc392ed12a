package waterwheel

import "testing"

func TestDropBeforeRetention(t *testing.T) {
	db := openTestDB(t, Options{ChunkBytes: 1 << 30})
	// Three temporally disjoint batches, each flushed to its own chunks.
	for w := 0; w < 3; w++ {
		for i := 0; i < 200; i++ {
			db.Insert(Tuple{
				Key:  Key(uint64(i) << 50),
				Time: Timestamp(w*100_000 + i),
			})
		}
		db.Flush()
	}
	chunksBefore := db.Stats().Chunks
	if chunksBefore < 3 {
		t.Fatalf("need >=3 chunks, have %d", chunksBefore)
	}
	// Drop everything before t=100 000: exactly the first batch's chunks.
	dropped := db.DropBefore(100_000)
	if dropped == 0 {
		t.Fatal("nothing dropped")
	}
	if got := db.Stats().Chunks; got != chunksBefore-dropped {
		t.Fatalf("chunks %d, want %d", got, chunksBefore-dropped)
	}
	// Old window empty; later windows intact.
	res, err := db.QueryRange(FullKeyRange(), TimeRange{Lo: 0, Hi: 99_999})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 0 {
		t.Fatalf("dropped window still returns %d tuples", len(res.Tuples))
	}
	res, err = db.QueryRange(FullKeyRange(), TimeRange{Lo: 100_000, Hi: 400_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 400 {
		t.Fatalf("retained windows: %d tuples, want 400", len(res.Tuples))
	}
	// Idempotent.
	if n := db.DropBefore(100_000); n != 0 {
		t.Fatalf("second drop removed %d", n)
	}
}

func TestDropBeforeTruncatesWAL(t *testing.T) {
	db := openTestDB(t, Options{ChunkBytes: 4 << 10})
	for i := 0; i < 2000; i++ {
		db.Insert(Tuple{Key: Key(uint64(i) << 50), Time: Timestamp(i)})
	}
	db.Flush()
	db.DropBefore(0) // drops nothing, but releases covered WAL records
	wal := db.Cluster().WAL()
	freed := false
	for i := 0; i < wal.Partitions(); i++ {
		if wal.Partition(i).Base() > 0 {
			freed = true
		}
	}
	if !freed {
		t.Error("WAL retention horizon never advanced")
	}
}
