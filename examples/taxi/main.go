// Taxi demonstrates the paper's T-Drive workload end to end: GPS samples
// are z-ordered into the key domain, and a geographic rectangle query
// ("which taxis were in this district during that interval?") becomes a
// handful of key-range queries.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"waterwheel"
	"waterwheel/internal/zorder"
)

// queryGeoRect runs one query per z-code interval covering a geographic
// rectangle — the paper's "for each of the z-code intervals, the system
// issues a query" — and merges the results.
func queryGeoRect(db *waterwheel.DB, grid *zorder.Grid, lon0, lat0, lon1, lat1 float64, times waterwheel.TimeRange) (*waterwheel.Result, error) {
	merged := &waterwheel.Result{}
	for _, iv := range grid.CoverGeoRect(lon0, lat0, lon1, lat1, 16) {
		r, err := db.Query(waterwheel.Query{Keys: waterwheel.KeyRange{Lo: waterwheel.Key(iv.Lo), Hi: waterwheel.Key(iv.Hi)}, Times: times})
		if err != nil {
			return nil, err
		}
		merged.Merge(r)
	}
	return merged, nil
}

func main() {
	db, err := waterwheel.Open(waterwheel.Options{ChunkBytes: 1 << 20})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Beijing bounding box at 2^14 cells per axis (~100 m resolution).
	grid := zorder.NewGrid(115.8, 117.1, 39.6, 40.4, 14)

	// 500 taxis random-walk for an hour of event time, reporting every
	// few seconds.
	const taxis = 500
	rng := rand.New(rand.NewSource(7))
	lons := make([]float64, taxis)
	lats := make([]float64, taxis)
	for i := range lons {
		lons[i] = 116.3 + rng.Float64()*0.2
		lats[i] = 39.85 + rng.Float64()*0.1
	}
	var now waterwheel.Timestamp
	for t := waterwheel.Timestamp(0); t < 3_600_000; t += 2000 {
		now = t
		for i := 0; i < taxis; i++ {
			lons[i] += rng.NormFloat64() * 0.0004
			lats[i] += rng.NormFloat64() * 0.0004
			payload := make([]byte, 4)
			payload[0], payload[1] = byte(i>>8), byte(i)
			db.Insert(waterwheel.Tuple{
				Key:     waterwheel.Key(grid.Key(lons[i], lats[i])),
				Time:    t,
				Payload: payload,
			})
		}
	}
	db.Drain()

	// "Which taxis appeared in this 2km x 2km district in the last 10
	// minutes?" — a geo rectangle × temporal range query.
	res, err := queryGeoRect(db, grid,
		116.38, 39.89, 116.42, 39.92,
		waterwheel.TimeRange{Lo: now - 600_000, Hi: now})
	if err != nil {
		log.Fatal(err)
	}
	distinct := map[uint16]bool{}
	for i := range res.Tuples {
		p := res.Tuples[i].Payload
		distinct[uint16(p[0])<<8|uint16(p[1])] = true
	}
	fmt.Printf("district query: %d position reports from %d distinct taxis\n",
		len(res.Tuples), len(distinct))

	// The same district an hour window earlier in history.
	res, err = queryGeoRect(db, grid,
		116.38, 39.89, 116.42, 39.92,
		waterwheel.TimeRange{Lo: 0, Hi: 600_000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("same district, first 10 min: %d reports\n", len(res.Tuples))
	st := db.Stats()
	fmt.Printf("store: %d tuples ingested, %d chunks flushed\n", st.Ingested, st.Chunks)
}
