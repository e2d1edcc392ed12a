package waterwheel

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"waterwheel/internal/chunk"
	"waterwheel/internal/meta"
)

func openTestDB(t *testing.T, opts Options) *DB {
	t.Helper()
	if opts.ChunkBytes == 0 {
		opts.ChunkBytes = 64 << 10
	}
	opts.Seed = 1
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestOpenInsertQueryClose(t *testing.T) {
	db := openTestDB(t, Options{})
	for i := 0; i < 500; i++ {
		db.Insert(Tuple{Key: Key(uint64(i) << 50), Time: Timestamp(1000 + i), Payload: []byte{byte(i)}})
	}
	db.Drain()
	res, err := db.QueryRange(FullKeyRange(), FullTimeRange())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 500 {
		t.Fatalf("got %d tuples", len(res.Tuples))
	}
	st := db.Stats()
	if st.Ingested != 500 {
		t.Errorf("stats %+v", st)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryRange(FullKeyRange(), FullTimeRange()); err != ErrClosed {
		t.Errorf("query after close: %v", err)
	}
}

func TestQueryWithFilter(t *testing.T) {
	db := openTestDB(t, Options{})
	for i := 0; i < 100; i++ {
		db.Insert(Tuple{Key: Key(i), Time: Timestamp(i)})
	}
	db.Drain()
	res, err := db.Query(Query{
		Keys:   FullKeyRange(),
		Times:  FullTimeRange(),
		Filter: And(KeyMod(2, 0), TimeCmp(LT, 50)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 25 {
		t.Fatalf("got %d tuples, want 25", len(res.Tuples))
	}
}

func TestFlushAndHistoricalQuery(t *testing.T) {
	db := openTestDB(t, Options{})
	for i := 0; i < 200; i++ {
		db.Insert(Tuple{Key: Key(uint64(i) << 50), Time: Timestamp(i)})
	}
	db.Drain()
	db.Flush()
	if db.Stats().Chunks == 0 {
		t.Fatal("flush registered no chunks")
	}
	if db.Stats().Buffered != 0 {
		t.Fatal("memtables not drained by flush")
	}
	res, err := db.QueryRange(FullKeyRange(), FullTimeRange())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 200 {
		t.Fatalf("historical query: %d tuples", len(res.Tuples))
	}
}

func TestNetworkServerRoundTrip(t *testing.T) {
	db := openTestDB(t, Options{})
	ns, err := db.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()

	cl, err := Dial(ns.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	batch := make([]Tuple, 300)
	for i := range batch {
		batch[i] = Tuple{Key: Key(uint64(i) << 50), Time: Timestamp(i), Payload: []byte("net")}
	}
	if err := cl.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Query(Query{Keys: FullKeyRange(), Times: FullTimeRange()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 300 {
		t.Fatalf("remote query: %d tuples", len(res.Tuples))
	}
	if string(res.Tuples[0].Payload) != "net" {
		t.Errorf("payload corrupted: %q", res.Tuples[0].Payload)
	}
	st, err := cl.Stats()
	if err != nil || st.Ingested != 300 {
		t.Errorf("remote stats %+v, %v", st, err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	// Remote query spanning chunk + fresh data after more inserts.
	if err := cl.InsertBatch(batch[:50]); err != nil {
		t.Fatal(err)
	}
	cl.Drain()
	res, err = cl.Query(Query{Keys: FullKeyRange(), Times: FullTimeRange()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 350 {
		t.Fatalf("after flush+insert: %d tuples", len(res.Tuples))
	}
}

func TestRemoteQueryWithFilter(t *testing.T) {
	db := openTestDB(t, Options{})
	ns, _ := db.Serve("127.0.0.1:0")
	defer ns.Close()
	cl, _ := Dial(ns.Addr)
	defer cl.Close()
	for i := 0; i < 100; i++ {
		cl.Insert(Tuple{Key: Key(i), Time: Timestamp(i)})
	}
	cl.Drain()
	res, err := cl.Query(Query{
		Keys: FullKeyRange(), Times: FullTimeRange(),
		Filter: KeyMod(10, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 10 {
		t.Fatalf("filtered remote query: %d tuples, want 10", len(res.Tuples))
	}
}

func TestRebalanceAPI(t *testing.T) {
	db := openTestDB(t, Options{Nodes: 2})
	for i := 0; i < 5000; i++ {
		db.Insert(Tuple{Key: Key(i % 1000), Time: Timestamp(i)}) // skewed
	}
	db.Drain()
	if !db.Rebalance() {
		t.Fatal("rebalance declined on skewed load")
	}
	if db.Stats().SchemaVersion < 2 {
		t.Error("schema version unchanged")
	}
}

func TestDataDirPersistence(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{DataDir: dir, ChunkBytes: 8 << 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		db.Insert(Tuple{Key: Key(uint64(i) << 45), Time: Timestamp(i), Payload: []byte{byte(i)}})
	}
	db.Drain()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Options{DataDir: dir, ChunkBytes: 8 << 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	db2.Drain()
	res, err := db2.QueryRange(FullKeyRange(), FullTimeRange())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 2000 {
		t.Fatalf("after reopen: %d/2000 tuples", len(res.Tuples))
	}
}

func TestInsertBatchAndStats(t *testing.T) {
	db := openTestDB(t, Options{})
	batch := make([]Tuple, 100)
	for i := range batch {
		batch[i] = Tuple{Key: Key(i), Time: Timestamp(i)}
	}
	db.InsertBatch(batch)
	db.Drain()
	st := db.Stats()
	if st.Ingested != 100 || st.Buffered != 100 || st.Chunks != 0 {
		t.Fatalf("stats %+v", st)
	}
	res, _ := db.QueryRange(FullKeyRange(), FullTimeRange())
	if len(res.Tuples) != 100 {
		t.Fatalf("batch insert lost tuples: %d", len(res.Tuples))
	}
}

// TestPayloadU64FilterOverChunks: a payload-attribute equality over
// flushed chunks returns exactly the matching tuples.
func TestPayloadU64FilterOverChunks(t *testing.T) {
	db := openTestDB(t, Options{ChunkBytes: 8 << 10})
	for i := 0; i < 2000; i++ {
		payload := make([]byte, 8)
		payload[7] = byte(i % 4) // attribute = i mod 4
		db.Insert(Tuple{Key: Key(uint64(i) << 50), Time: Timestamp(i), Payload: payload})
	}
	db.Drain()
	db.Flush()
	res, err := db.Query(Query{
		Keys:   FullKeyRange(),
		Times:  FullTimeRange(),
		Filter: PayloadU64(0, EQ, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 500 {
		t.Fatalf("attribute-filtered query: %d, want 500", len(res.Tuples))
	}
}

func TestCloseIsIdempotentAndFlushes(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{DataDir: dir, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	db.Insert(Tuple{Key: 1, Time: 1})
	db.Drain()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Close flushed the memtable: the tuple is in a chunk after reopen
	// without any WAL replay being necessary.
	db2, err := Open(Options{DataDir: dir, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Stats().Chunks == 0 {
		t.Error("close did not flush to a chunk")
	}
	res, _ := db2.QueryRange(FullKeyRange(), FullTimeRange())
	if len(res.Tuples) != 1 {
		t.Fatalf("tuple lost across close: %d", len(res.Tuples))
	}
}

// TestUndecodableChunkFailsQueryTyped: a chunk file this build cannot
// decode — the WWCHUNK1 magic of early builds, or garbage — is a property
// of the file, not of the query server that opened it. The query must fail
// at once with the typed cause, not burn a redispatch per server and end
// as "no live query servers", and the servers must keep answering queries
// over healthy chunks afterwards. No dispatch goroutine — a worker, or a
// sweeper parked for a redispatch that will never come — outlives the query
// the failure ended.
func TestUndecodableChunkFailsQueryTyped(t *testing.T) {
	db := openTestDB(t, Options{QueryServersPerNode: 3})
	for i := 0; i < 500; i++ {
		db.Insert(Tuple{Key: Key(uint64(i) << 50), Time: Timestamp(1000 + i), Payload: []byte{byte(i)}})
	}
	db.Drain()
	db.Flush()
	healthy := Region{Keys: FullKeyRange(), Times: TimeRange{Lo: 1000, Hi: 1499}}
	fs, ms := db.Cluster().FS(), db.Cluster().Metadata()
	chunks := ms.ChunksFor(healthy)
	if len(chunks) == 0 {
		t.Fatal("nothing flushed")
	}
	good, err := fs.Read(chunks[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte(nil), good...)
	v1[7] = '1'
	garbage := make([]byte, len(good))
	for i := range garbage {
		garbage[i] = byte(i*7 + 3)
	}
	register := func(path string, data []byte, times TimeRange) {
		t.Helper()
		if err := fs.Write(path, data); err != nil {
			t.Fatal(err)
		}
		ms.RegisterChunks([]meta.ChunkInfo{{
			Path: path, Region: Region{Keys: FullKeyRange(), Times: times},
			Count: 1, Size: int64(len(data)), HeaderLen: chunks[0].HeaderLen,
		}})
	}
	v1Times, garbageTimes := TimeRange{Lo: 5000, Hi: 5999}, TimeRange{Lo: 7000, Hi: 7999}
	register("chunks/foreign-v1", v1, v1Times)
	register("chunks/foreign-garbage", garbage, garbageTimes)

	// A worker may still be on its way out of wg.Done when the dispatch
	// returns, so one that is gone a moment later did not outlive the query.
	noDispatchLeft := func(what string) {
		t.Helper()
		buf := make([]byte, 1<<20)
		for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
			stacks := string(buf[:runtime.Stack(buf, true)])
			if !strings.Contains(stacks, "runChunkSubqueries") {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("a dispatch goroutine outlived the failed %s:\n%s", what, stacks)
				return
			}
		}
	}
	redispatches := db.Telemetry().Counter("waterwheel_query_redispatches_total", "")
	before := redispatches.Value()
	if _, err := db.QueryRange(FullKeyRange(), v1Times); !errors.Is(err, chunk.ErrUnsupportedVersion) {
		t.Errorf("query over a WWCHUNK1 file: err = %v, want chunk.ErrUnsupportedVersion", err)
	}
	noDispatchLeft("query over a WWCHUNK1 file")
	_, err = db.Aggregate(AggregateQuery{Keys: FullKeyRange(), Times: v1Times, Kind: AggSum})
	if !errors.Is(err, chunk.ErrUnsupportedVersion) {
		t.Errorf("aggregate over a WWCHUNK1 file: err = %v, want chunk.ErrUnsupportedVersion", err)
	}
	noDispatchLeft("aggregate over a WWCHUNK1 file")
	if _, err := db.QueryRange(FullKeyRange(), garbageTimes); !errors.Is(err, chunk.ErrCorrupt) {
		t.Errorf("query over a garbage file: err = %v, want chunk.ErrCorrupt", err)
	}
	noDispatchLeft("query over a garbage file")
	if d := redispatches.Value() - before; d != 0 {
		t.Errorf("undecodable chunks cost %d redispatches, want 0", d)
	}
	res, err := db.QueryRange(healthy.Keys, healthy.Times)
	if err != nil || len(res.Tuples) != 500 {
		t.Fatalf("query over healthy chunks afterwards: %d tuples, err %v", len(res.Tuples), err)
	}
}

// TestEveryOptionReachesConfig keeps dead knobs from growing back: setting
// any single Options field to a non-zero value must change the cluster
// configuration Open builds from it. A field the mapping ignores — one that
// was added without being wired, or whose consumer was deleted — fails here.
func TestEveryOptionReachesConfig(t *testing.T) {
	if !reflect.DeepEqual(Options{}.config(), Options{}.config()) {
		t.Fatal("two configs of the same options differ: the comparison below proves nothing")
	}
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		var set Options
		f := reflect.ValueOf(&set).Elem().Field(i)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(7)
		case reflect.String:
			f.SetString("x")
		default:
			t.Fatalf("Options.%s has kind %s: teach this test to set it", name, f.Kind())
		}
		if reflect.DeepEqual(Options{}.config(), set.config()) {
			t.Errorf("Options.%s does not reach the cluster config", name)
		}
	}
}
