package waterwheel_test

import (
	"fmt"
	"log"

	"waterwheel"
)

// ExampleOpen shows the minimal ingest-then-query round trip.
func ExampleOpen() {
	db, err := waterwheel.Open(waterwheel.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	for i := 0; i < 10; i++ {
		db.Insert(waterwheel.Tuple{
			Key:  waterwheel.Key(i),
			Time: waterwheel.Timestamp(1000 + i),
		})
	}
	db.Drain()

	res, err := db.QueryRange(
		waterwheel.KeyRange{Lo: 3, Hi: 6},
		waterwheel.TimeRange{Lo: 0, Hi: 2000},
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(res.Tuples), "tuples")
	// Output: 4 tuples
}

// ExampleDB_Query shows a filtered, limited query.
func ExampleDB_Query() {
	db, err := waterwheel.Open(waterwheel.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	for i := 0; i < 100; i++ {
		db.Insert(waterwheel.Tuple{Key: waterwheel.Key(i), Time: waterwheel.Timestamp(i)})
	}
	db.Drain()

	res, err := db.Query(waterwheel.Query{
		Keys:   waterwheel.FullKeyRange(),
		Times:  waterwheel.FullTimeRange(),
		Filter: waterwheel.KeyMod(10, 0), // keys divisible by 10
		Limit:  3,                        // lowest three of them
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, t := range res.Tuples {
		fmt.Println(t.Key)
	}
	// Output:
	// 0
	// 10
	// 20
}
