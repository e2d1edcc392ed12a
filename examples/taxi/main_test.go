package main

import (
	"testing"

	"waterwheel"
	"waterwheel/internal/zorder"
)

func TestGeoGridQueries(t *testing.T) {
	db, err := waterwheel.Open(waterwheel.Options{ChunkBytes: 64 << 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	g := zorder.NewGrid(116.0, 117.0, 39.5, 40.5, 12)
	// A cluster of points inside a small box, plus scattered noise.
	for i := 0; i < 50; i++ {
		lon := 116.40 + float64(i%5)*0.001
		lat := 39.90 + float64(i/5)*0.001
		db.Insert(waterwheel.Tuple{Key: waterwheel.Key(g.Key(lon, lat)), Time: waterwheel.Timestamp(1000 + i)})
	}
	for i := 0; i < 50; i++ {
		db.Insert(waterwheel.Tuple{Key: waterwheel.Key(g.Key(116.9, 40.4)), Time: waterwheel.Timestamp(2000 + i)})
	}
	db.Drain()
	res, err := queryGeoRect(db, g, 116.39, 39.89, 116.42, 39.92, waterwheel.FullTimeRange())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 50 {
		t.Fatalf("geo query: %d tuples, want 50", len(res.Tuples))
	}
}
