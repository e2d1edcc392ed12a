// IoT demonstrates the paper's predictive-maintenance use case: vibration
// sensors on factory equipment stream readings; the analytics engine
// "identifies sensors with readings in particular ranges" — a key range
// (machine group) plus a payload predicate (reading threshold) over a
// time window.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math"
	"math/rand"

	"waterwheel"
)

func main() {
	db, err := waterwheel.Open(waterwheel.Options{ChunkBytes: 1 << 20})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// 2000 sensors across 20 machine groups; key = group<<32 | sensor.
	const (
		groups  = 20
		perGrp  = 100
		msPerHr = 3_600_000
	)
	key := func(group, sensor int) waterwheel.Key {
		return waterwheel.Key(uint64(group)<<32 | uint64(sensor))
	}
	rng := rand.New(rand.NewSource(3))
	var now waterwheel.Timestamp
	for t := waterwheel.Timestamp(0); t < msPerHr; t += 1000 {
		now = t
		for g := 0; g < groups; g++ {
			for s := 0; s < perGrp; s++ {
				// Baseline vibration ~100 units; group 7 degrades over time.
				v := 100 + rng.NormFloat64()*10
				if g == 7 {
					v += float64(t) / msPerHr * 80
				}
				payload := make([]byte, 8)
				binary.BigEndian.PutUint64(payload, uint64(math.Round(v)))
				db.Insert(waterwheel.Tuple{Key: key(g, s), Time: t, Payload: payload})
			}
		}
	}

	// Which sensors in any group exceeded 150 units in the last 10 min?
	hot, err := db.Query(waterwheel.Query{
		Keys:   waterwheel.FullKeyRange(),
		Times:  waterwheel.TimeRange{Lo: now - 600_000, Hi: now},
		Filter: waterwheel.PayloadU64(0, waterwheel.GT, 150),
	})
	if err != nil {
		log.Fatal(err)
	}
	byGroup := map[uint64]int{}
	for i := range hot.Tuples {
		byGroup[uint64(hot.Tuples[i].Key)>>32]++
	}
	fmt.Printf("readings > 150 in last 10 min: %d, by group: %v\n", len(hot.Tuples), byGroup)

	// Drill into the suspicious group's full history.
	g7 := waterwheel.KeyRange{Lo: key(7, 0), Hi: key(7, perGrp-1)}
	hist, err := db.Query(waterwheel.Query{
		Keys:   g7,
		Times:  waterwheel.FullTimeRange(),
		Filter: waterwheel.PayloadU64(0, waterwheel.GT, 150),
	})
	if err != nil {
		log.Fatal(err)
	}
	var first waterwheel.Timestamp = -1
	if len(hist.Tuples) > 0 {
		first = hist.Tuples[0].Time
		for i := range hist.Tuples {
			if hist.Tuples[i].Time < first {
				first = hist.Tuples[i].Time
			}
		}
	}
	fmt.Printf("group 7 exceedances over the hour: %d (first at t=%d ms)\n",
		len(hist.Tuples), first)
	fmt.Printf("conclusion: group 7 vibration trending up -> schedule maintenance\n")
}
