// Netmon reproduces the paper's motivating application (Fig. 1): a
// telecom backbone streams packet samples into the store, and an analyst
// asks "retrieve all packets from within 10.68.73.* in the last 5
// minutes" to chase an incident — a key range (the subnet) combined with
// a temporal range (the recent window).
package main

import (
	"fmt"
	"log"
	"math/rand"

	"waterwheel"
)

// ipKey spreads an IPv4 address over the key domain (high 32 bits).
func ipKey(a, b, c, d byte) waterwheel.Key {
	ip := uint64(a)<<24 | uint64(b)<<16 | uint64(c)<<8 | uint64(d)
	return waterwheel.Key(ip << 32)
}

// subnetRange returns the key range of a /24.
func subnetRange(a, b, c byte) waterwheel.KeyRange {
	return waterwheel.KeyRange{Lo: ipKey(a, b, c, 0), Hi: ipKey(a, b, c, 255)}
}

func main() {
	db, err := waterwheel.Open(waterwheel.Options{ChunkBytes: 1 << 20})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	rng := rand.New(rand.NewSource(1))
	now := waterwheel.Timestamp(0)

	// 30 minutes of packet samples at a few hundred per second of event
	// time. Background traffic is uniform; an "attack" from 10.68.73.*
	// ramps up in the last five minutes.
	const msPerMin = 60_000
	for t := waterwheel.Timestamp(0); t < 30*msPerMin; t += 5 {
		now = t
		var key waterwheel.Key
		inAttack := t >= 25*msPerMin && rng.Float64() < 0.4
		if inAttack {
			key = ipKey(10, 68, 73, byte(rng.Intn(256)))
		} else {
			key = waterwheel.Key(rng.Uint64())
		}
		payload := []byte{byte(rng.Intn(2))} // 0 = SYN, 1 = data
		db.Insert(waterwheel.Tuple{Key: key, Time: t, Payload: payload})
	}

	// The analyst's query: all packets from 10.68.73.* in the last 5 min.
	recent := waterwheel.TimeRange{Lo: now - 5*msPerMin, Hi: now}
	res, err := db.Query(waterwheel.Query{Keys: subnetRange(10, 68, 73), Times: recent})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("10.68.73.* in last 5 min: %d packets (%d subqueries)\n",
		len(res.Tuples), res.SubQueries)

	// Compare against the 5 minutes before: the spike stands out.
	before := waterwheel.TimeRange{Lo: now - 10*msPerMin, Hi: now - 5*msPerMin}
	prev, err := db.Query(waterwheel.Query{Keys: subnetRange(10, 68, 73), Times: before})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("same subnet, previous 5 min: %d packets\n", len(prev.Tuples))
	if len(prev.Tuples) > 0 {
		fmt.Printf("traffic ratio: %.1fx — anomaly detected\n",
			float64(len(res.Tuples))/float64(len(prev.Tuples)))
	}

	// Drill down with a predicate: SYN packets only (payload byte 0 == 0).
	syn, err := db.Query(waterwheel.Query{
		Keys:   subnetRange(10, 68, 73),
		Times:  recent,
		Filter: waterwheel.PayloadBytes(0, waterwheel.EQ, []byte{0}),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("of which SYN packets: %d\n", len(syn.Tuples))
}
