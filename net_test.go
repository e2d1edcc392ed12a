package waterwheel

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"waterwheel/internal/model"
	"waterwheel/internal/transport"
)

// TestNetServerRejectsGarbage: bytes that are not a frame cost the sender
// its connection and nothing else; a well-framed request whose payload is
// not the verb's encoding gets a typed refusal and the connection lives on.
func TestNetServerRejectsGarbage(t *testing.T) {
	db := openTestDB(t, Options{})
	ns, err := db.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()

	// A valid frame to mangle: an empty "stats" request.
	good := []byte{0, 0, 0, 24, 'W', 'W', 'F', 2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 5, 's', 't', 'a', 't', 's', 0, 0, 0, 0, 0}
	with := func(edit func(b []byte)) []byte {
		b := bytes.Clone(good)
		edit(b)
		return b
	}
	for name, raw := range map[string][]byte{
		"truncated header": good[:2],
		"short body":       good[:len(good)-3],
		"wrong magic":      with(func(b []byte) { b[4] = 'X' }),
		"wrong version":    with(func(b []byte) { b[7] = 1 }),
		"oversize length":  with(func(b []byte) { b[0] = 0xFF }),
		"method overruns":  with(func(b []byte) { b[16] = 0xFF }),
		"http":             []byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"),
	} {
		conn, err := net.Dial("tcp", ns.Addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(raw)
		conn.(*net.TCPConn).CloseWrite()
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		// The server answers nothing and hangs up.
		if reply, err := io.ReadAll(conn); err != nil || len(reply) != 0 {
			t.Errorf("%s: reply %x, err %v; want a silent close", name, reply, err)
		}
		conn.Close()
	}
	// The same bytes unmangled are served, so the cases above failed for
	// the reason they name.
	conn, err := net.Dial("tcp", ns.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write(good)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Fatalf("valid frame after garbage connections: %v", err)
	}

	// Speak the transport protocol with malformed payloads.
	raw, err := transport.Dial(ns.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	q := Query{Keys: FullKeyRange(), Times: FullTimeRange(), Filter: KeyMod(2, 0)}
	qenc := model.AppendQuery(nil, &q)
	for _, tc := range []struct {
		verb    string
		payload []byte
	}{
		{"insert", []byte{1, 2, 3}},
		{"insert", append(model.AppendTuples(nil, []Tuple{{Key: 1, Payload: []byte("abc")}}), 0)},
		{"query", []byte("not-a-query")},
		{"query", nil},
		{"query", qenc[:len(qenc)-1]},
		{"query", append(bytes.Clone(qenc), 0)},
		{"trace", []byte("not-a-query")},
		{"agg", []byte("not-an-aggregate")},
		{"agg", qenc},
		{"admin", []byte("not-json")},
		{"admin", nil},
		{"admin", []byte(`{"Op":7}`)},
	} {
		_, err := raw.Call(tc.verb, tc.payload)
		var se *transport.StatusError
		if !errors.As(err, &se) || se.Code != transport.StatusBadRequest {
			t.Errorf("%s %x: err = %v, want a bad-request status", tc.verb, tc.payload, err)
		}
	}
	var se *transport.StatusError
	if _, err := raw.Call("no-such-method", nil); !errors.As(err, &se) || se.Code != transport.StatusUnknownMethod {
		t.Errorf("unknown method: %v", err)
	}
	// The connection and the server survive all of that.
	if _, err := raw.Call("stats", nil); err != nil {
		t.Errorf("stats after garbage: %v", err)
	}
}

// netFixture opens a DB holding n tuples — the first half flushed to
// chunks, the rest in memtables — behind a NetServer, with a client.
func netFixture(t *testing.T, opts Options, n int) (*DB, *Client, []Tuple) {
	t.Helper()
	db := openTestDB(t, opts)
	ns, err := db.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ns.Close)
	cl, err := Dial(ns.Addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	ts := make([]Tuple, n)
	for i := range ts {
		p := binary.BigEndian.AppendUint64(make([]byte, 0, 16), uint64(i*7))
		ts[i] = Tuple{Key: Key(uint64(i) * 0x9E3779B97F4A7C15), Time: Timestamp(1000 + i), Payload: append(p, byte(i))}
	}
	if err := cl.InsertBatch(ts[:n/2]); err != nil {
		t.Fatal(err)
	}
	awaitTuples(t, cl, n/2)
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := cl.InsertBatch(ts[n/2:]); err != nil {
		t.Fatal(err)
	}
	awaitTuples(t, cl, n)
	return db, cl, ts
}

// awaitTuples is the insert→query barrier: after Drain every acked tuple
// is visible, so one full-range query must see exactly n.
func awaitTuples(t *testing.T, cl *Client, n int) {
	t.Helper()
	if err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Query(Query{Keys: FullKeyRange(), Times: FullTimeRange()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != n {
		t.Fatalf("after Drain the store holds %d tuples, want %d", len(res.Tuples), n)
	}
}

func sameTuples(a, b []Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Time != b[i].Time || !bytes.Equal(a[i].Payload, b[i].Payload) {
			return false
		}
	}
	return true
}

// TestNetClientEquivalentToDB: every query verb answers over loopback TCP
// what it answers in-process, on the same DB.
func TestNetClientEquivalentToDB(t *testing.T) {
	const n = 6000
	db, cl, _ := netFixture(t, Options{IndexServersPerNode: 2}, n)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		q := Query{Keys: FullKeyRange(), Times: TimeRange{Lo: Timestamp(rng.Intn(n)), Hi: Timestamp(1000 + rng.Intn(n))}}
		switch i % 6 {
		case 1:
			lo := Key(rng.Uint64())
			q.Keys = KeyRange{Lo: lo, Hi: lo + Key(rng.Uint64()>>2)}
		case 2:
			q.Filter = And(KeyMod(3, uint64(rng.Intn(3))), Not(PayloadU64(0, LT, uint64(rng.Intn(7*n)))))
		case 3:
			q.Limit = 1 + rng.Intn(50)
		case 4:
			q.Times = FullTimeRange()
			q.Recur = &Recurrence{PeriodMillis: 1000, StartMillis: int64(rng.Intn(500)), LengthMillis: int64(1 + rng.Intn(500))}
		case 5:
			q.Times = TimeRange{Lo: model.MaxTimestamp, Hi: model.MinTimestamp} // inverted: empty
		}
		want, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cl.Query(q)
		if err != nil {
			t.Fatalf("query %d over TCP: %v", i, err)
		}
		if !sameTuples(got.Tuples, want.Tuples) || got.SubQueries != want.SubQueries {
			t.Fatalf("query %d: %d tuples / %d subqueries over TCP, %d / %d in-process",
				i, len(got.Tuples), got.SubQueries, len(want.Tuples), want.SubQueries)
		}
		traced, tr, err := cl.QueryTraced(q)
		if err != nil {
			t.Fatalf("traced query %d over TCP: %v", i, err)
		}
		if !sameTuples(traced.Tuples, want.Tuples) || tr == nil || tr.Root == nil || tr.Root.Name != "query" {
			t.Fatalf("traced query %d: %d tuples, trace %v; want %d tuples and a span tree", i, len(traced.Tuples), tr, len(want.Tuples))
		}

		aq := AggregateQuery{Keys: q.Keys, Times: q.Times, Filter: q.Filter, Kind: AggKind(i % 4)}
		wantAgg, err := db.Aggregate(aq)
		if err != nil {
			t.Fatal(err)
		}
		gotAgg, err := cl.Aggregate(aq)
		if err != nil {
			t.Fatalf("aggregate %d over TCP: %v", i, err)
		}
		if gotAgg.Kind != wantAgg.Kind || gotAgg.AggPartial != wantAgg.AggPartial || gotAgg.MetaChunks != wantAgg.MetaChunks {
			t.Fatalf("aggregate %d: %+v over TCP, %+v in-process", i, gotAgg, wantAgg)
		}
	}
}

// TestNetBatchErrorSurvivesTheWire: a partly rejected batch reports the
// same rejected positions over TCP as DB.InsertBatch reports in-process —
// holes included — and resubmitting them over the same connection leaves
// every tuple stored exactly once.
func TestNetBatchErrorSurvivesTheWire(t *testing.T) {
	db, cl, _ := netFixture(t, Options{IndexServersPerNode: 2}, 0)
	batch := func(at int) []Tuple {
		low, high := Key(1<<10), Key(1<<63+1<<10) // server 0, server 1
		keys := []Key{low, high, low + 1, high + 1, low + 2}
		out := make([]Tuple, len(keys))
		for i, k := range keys {
			out[i] = Tuple{Key: k, Time: Timestamp(at + i)}
		}
		return out
	}
	db.c.WAL().Partition(1).FailNextAppends(1)
	var local *BatchError
	if err := db.InsertBatch(batch(1000)); !errors.As(err, &local) {
		t.Fatalf("in-process err = %v, want *BatchError", err)
	}
	db.c.WAL().Partition(1).FailNextAppends(1)
	sent := batch(2000)
	err := cl.InsertBatch(sent)
	var remote *BatchError
	if !errors.As(err, &remote) {
		t.Fatalf("over TCP err = %v (%T), want *BatchError", err, err)
	}
	if remote.Index != 1 || remote.Len != 5 || !reflect.DeepEqual(remote.Rejected, []int{1, 3}) {
		t.Errorf("over TCP: index %d, len %d, rejected %v; want 1, 5, [1 3]", remote.Index, remote.Len, remote.Rejected)
	}
	if !reflect.DeepEqual(remote.Rejected, local.Rejected) || remote.Index != local.Index || remote.Len != local.Len {
		t.Errorf("over TCP %+v, in-process %+v", remote, local)
	}
	if remote.Error() != local.Error() {
		t.Errorf("message over TCP %q, in-process %q", remote.Error(), local.Error())
	}
	// What the errors do not name is what the store took, both times.
	awaitTuples(t, cl, 2*(remote.Len-len(remote.Rejected)))
	// The fault was one-shot: the same client and connection carry the
	// rejected positions, and then the batch is whole.
	var retry []Tuple
	for _, i := range remote.Rejected {
		retry = append(retry, sent[i])
	}
	if err := cl.InsertBatch(retry); err != nil {
		t.Fatalf("resubmit after the fault: %v", err)
	}
	awaitTuples(t, cl, 3+5)
	res, err := cl.Query(Query{Keys: FullKeyRange(), Times: TimeRange{Lo: 2000, Hi: 2999}})
	if err != nil {
		t.Fatal(err)
	}
	var times []Timestamp
	for _, tp := range res.Tuples {
		times = append(times, tp.Time)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	if want := []Timestamp{2000, 2001, 2002, 2003, 2004}; !reflect.DeepEqual(times, want) {
		t.Fatalf("the TCP batch is stored as %v, want each of %v once", times, want)
	}
}

// batchStatusPayload builds a statusBatch payload by hand.
func batchStatusPayload(index, size uint64, cause byte, positions ...uint64) []byte {
	p := binary.BigEndian.AppendUint64(nil, index)
	p = append(binary.BigEndian.AppendUint64(p, size), cause)
	for _, at := range positions {
		p = binary.BigEndian.AppendUint64(p, at)
	}
	return p
}

// TestNetHostileBatchStatus: a statusBatch reply that is not a well-formed
// BatchError comes back as ErrBadBatchStatus — never a BatchError a caller
// would resubmit from, never a panic, never an allocation sized by a number
// the reply merely claims.
func TestNetHostileBatchStatus(t *testing.T) {
	good := batchStatusPayload(1, 5, transport.StatusFailed, 1, 3)
	be, err := decodeBatchStatus(good)
	if err != nil || be.Index != 1 || be.Len != 5 || !reflect.DeepEqual(be.Rejected, []int{1, 3}) {
		t.Fatalf("well-formed payload = %+v, %v", be, err)
	}
	for name, p := range map[string][]byte{
		"empty":              nil,
		"old 17-byte form":   batchStatusPayload(1, 5, 0),
		"no positions":       good[:batchStatusFixed],
		"torn position":      good[:len(good)-3],
		"more than Len":      batchStatusPayload(0, 2, 0, 0, 1, 2),
		"out of range":       batchStatusPayload(1, 5, 0, 1, 5),
		"way out of range":   batchStatusPayload(1, 5, 0, 1, 1<<63),
		"descending":         batchStatusPayload(3, 5, 0, 3, 1),
		"repeated":           batchStatusPayload(1, 5, 0, 1, 1),
		"index not first":    batchStatusPayload(0, 5, 0, 1, 3),
		"index out of range": batchStatusPayload(1<<40, 5, 0, 1, 3),
		"absurd Len":         batchStatusPayload(1, 1<<62, 0, 1, 3),
	} {
		if be, err := decodeBatchStatus(p); !errors.Is(err, ErrBadBatchStatus) {
			t.Errorf("%s: decoded to %+v, %v; want ErrBadBatchStatus", name, be, err)
		}
		got := clientError(&transport.StatusError{Code: statusBatch, Msg: "boom", Payload: p})
		var asBatch *BatchError
		if !errors.Is(got, ErrBadBatchStatus) || errors.As(got, &asBatch) || !strings.Contains(got.Error(), "boom") {
			t.Errorf("%s: client error %v; want ErrBadBatchStatus carrying the server's message, and no BatchError", name, got)
		}
	}
	if raceEnabled {
		return
	}
	// A reply claiming a 2^31-tuple batch with two positions allocates for
	// two positions.
	big := batchStatusPayload(1, 1<<31-1, 0, 1, 1<<31-2)
	if a := testing.AllocsPerRun(100, func() { decodeBatchStatus(big) }); a > 2 {
		t.Errorf("decoding a two-position reply allocates %.0f objects", a)
	}
}

// FuzzDecodeBatchStatus: whatever bytes a statusBatch reply carries, the
// decoder neither panics nor over-allocates, and what it accepts is a
// BatchError a resubmit loop can trust: re-encoding it gives the same bytes.
func FuzzDecodeBatchStatus(f *testing.F) {
	f.Add(batchStatusPayload(1, 5, transport.StatusFailed, 1, 3))
	f.Add(batchStatusPayload(0, 1, statusClosed, 0))
	f.Add(batchStatusPayload(1, 5, 0))
	f.Add(batchStatusPayload(3, 5, 0, 3, 1))
	f.Add(batchStatusPayload(1, 1<<62, 0, 1, 3))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		be, err := decodeBatchStatus(p)
		if err != nil {
			if !errors.Is(err, ErrBadBatchStatus) || be != nil {
				t.Fatalf("rejected with %v and %+v", err, be)
			}
			return
		}
		if len(be.Rejected) == 0 || len(be.Rejected) > be.Len || be.Index != be.Rejected[0] || 8*len(be.Rejected) > len(p) {
			t.Fatalf("accepted %+v from %d bytes", be, len(p))
		}
		for i, at := range be.Rejected {
			if at < 0 || at >= be.Len || (i > 0 && at <= be.Rejected[i-1]) {
				t.Fatalf("accepted positions %v in a batch of %d", be.Rejected, be.Len)
			}
		}
		be.Err = wireSentinels.Decode(&transport.StatusError{Code: p[batchStatusFixed-1]})
		var se *transport.StatusError
		if !errors.As(wireError(be), &se) || !bytes.Equal(se.Payload[:batchStatusFixed-1], p[:batchStatusFixed-1]) ||
			!bytes.Equal(se.Payload[batchStatusFixed:], p[batchStatusFixed:]) {
			t.Fatalf("%+v re-encodes to %x, came from %x", be, se.Payload, p)
		}
	})
}

// FuzzInsertFrame: whatever bytes an insert request carries, the server
// either refuses them whole — BadRequest, and no partition's head moves —
// or acks them, and COUNT(*) grows by exactly the tuples model.CountTuples
// finds in them. The frame goes to the log as it came, so these are the
// only two outcomes a client can see.
func FuzzInsertFrame(f *testing.F) {
	valid := model.AppendTuples(nil, []Tuple{
		{Key: 1, Time: 10, Payload: []byte("abc")},
		{Key: 1 << 63, Time: 11, Payload: []byte("de")},
		{Key: 7, Time: 12, Payload: []byte("f")},
	})
	past := bytes.Clone(valid)
	binary.BigEndian.PutUint32(past[16:], 1<<20) // the first length field runs past the end
	f.Add(valid)
	f.Add(valid[:len(valid)-1]) // the last record cut short
	f.Add(past)
	f.Add([]byte{})
	f.Add(model.AppendTuple(nil, &Tuple{Key: 9, Time: 1})) // a zero-length payload

	db, err := Open(Options{ChunkBytes: 64 << 10, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { db.Close() })
	ns, err := db.Serve("127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(ns.Close)
	raw, err := transport.Dial(ns.Addr)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { raw.Close() })
	heads := func() []int64 {
		log := db.Cluster().WAL()
		out := make([]int64, log.Partitions())
		for i := range out {
			out[i] = log.Partition(i).Next()
		}
		return out
	}
	var want uint64
	f.Fuzz(func(t *testing.T, payload []byte) {
		before := heads()
		_, err := raw.Call("insert", payload)
		n, cerr := model.CountTuples(payload)
		if cerr != nil {
			var se *transport.StatusError
			if !errors.As(err, &se) || se.Code != transport.StatusBadRequest {
				t.Fatalf("a frame that is not whole records (%v) was answered %v, want a bad-request status", cerr, err)
			}
			if after := heads(); !reflect.DeepEqual(after, before) {
				t.Fatalf("a refused frame moved the log heads %v -> %v", before, after)
			}
			return
		}
		if err != nil {
			t.Fatalf("a frame of %d whole records was refused: %v", n, err)
		}
		want += uint64(n)
		if err := db.Drain(); err != nil {
			t.Fatal(err)
		}
		res, err := db.Aggregate(AggregateQuery{Keys: FullKeyRange(), Times: FullTimeRange(), Kind: AggCount})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != want {
			t.Fatalf("COUNT(*) = %d after acking a frame of %d tuples, want %d", res.Count, n, want)
		}
	})
}

// TestNetSentinelErrorsByCode: ErrClosed is matched by errors.Is on the
// client, through a batch error too, not by its text.
func TestNetSentinelErrorsByCode(t *testing.T) {
	db, cl, _ := netFixture(t, Options{}, 10)
	db.Close()
	if _, err := cl.Query(Query{Keys: FullKeyRange(), Times: FullTimeRange()}); !errors.Is(err, ErrClosed) {
		t.Errorf("query on a closed DB: %v, want ErrClosed", err)
	}
	if _, err := cl.Aggregate(AggregateQuery{Keys: FullKeyRange(), Times: FullTimeRange()}); !errors.Is(err, ErrClosed) {
		t.Errorf("aggregate on a closed DB: %v, want ErrClosed", err)
	}
	if _, _, err := cl.QueryTraced(Query{Keys: FullKeyRange(), Times: FullTimeRange()}); !errors.Is(err, ErrClosed) {
		t.Errorf("traced query on a closed DB: %v, want ErrClosed", err)
	}
	// The codes map both ways for every sentinel the verbs name.
	for _, sentinel := range []error{ErrClosed, ErrRetired} {
		wrapped := fmt.Errorf("context: %w", sentinel)
		if got := clientError(wireError(wrapped)); !errors.Is(got, sentinel) || got.Error() != wrapped.Error() {
			t.Errorf("%v came back as %v", wrapped, got)
		}
		got := clientError(wireError(&BatchError{Index: 2, Len: 9, Rejected: []int{2, 8}, Err: wrapped}))
		var be *BatchError
		if !errors.As(got, &be) || be.Index != 2 || be.Len != 9 || !reflect.DeepEqual(be.Rejected, []int{2, 8}) || !errors.Is(got, sentinel) {
			t.Errorf("batch error over %v came back as %v", sentinel, got)
		}
	}
	if got := clientError(wireError(errors.New("plain"))); got.Error() != "plain" {
		t.Errorf("plain error came back as %v", got)
	}
}

// TestNetQueryAllocGuard: a 15 000-tuple result costs the wire path a
// constant number of allocations — one response buffer, one tuple slice
// and per-call bookkeeping — not one or more per tuple.
func TestNetQueryAllocGuard(t *testing.T) {
	skipAllocGuardUnderRace(t)
	const n = 15_000
	db, cl, _ := netFixture(t, Options{}, n)
	// Everything in chunks, every leaf cached: the engine's own count is
	// then small and steady.
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	q := Query{Keys: FullKeyRange(), Times: FullTimeRange()}
	if res, err := cl.Query(q); err != nil || len(res.Tuples) != n {
		t.Fatalf("warm-up query: %v", err)
	}
	// The count is the process's, so the in-process query is taken off; a
	// collection between runs empties the engine's pools, so each side is
	// its quietest of ten.
	quietest := func(fn func()) float64 {
		least := math.Inf(1)
		for i := 0; i < 10; i++ {
			least = min(least, testing.AllocsPerRun(1, fn))
		}
		return least
	}
	inProcess := quietest(func() { db.Query(q) })
	overTCP := quietest(func() { cl.Query(q) })
	t.Logf("allocations per query: %.0f in-process, %.0f over TCP", inProcess, overTCP)
	if wire := overTCP - inProcess; wire > 100 {
		t.Errorf("the wire path allocates %.0f times for %d tuples, want a small constant", wire, n)
	}
}

// TestNetConcurrentInsertQuery drives inserts and queries concurrently
// over one multiplexed connection: slow queries must not stall inserts,
// and responses must demultiplex to the right callers.
func TestNetConcurrentInsertQuery(t *testing.T) {
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

	const (
		writers  = 4
		perBatch = 50
		batches  = 20
		readers  = 3
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers*batches+readers*batches)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				ts := make([]Tuple, perBatch)
				for i := range ts {
					n := (w*batches+b)*perBatch + i
					ts[i] = Tuple{Key: Key(n), Time: Timestamp(1000 + n), Payload: []byte{byte(w)}}
				}
				if err := cl.InsertBatch(ts); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for rdr := 0; rdr < readers; rdr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				if _, err := cl.Query(Query{Keys: FullKeyRange(), Times: FullTimeRange()}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent net traffic: %v", err)
	}

	if err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Query(Query{Keys: FullKeyRange(), Times: FullTimeRange()})
	if err != nil {
		t.Fatal(err)
	}
	want := writers * perBatch * batches
	if len(res.Tuples) != want {
		t.Errorf("after concurrent inserts: %d tuples, want %d", len(res.Tuples), want)
	}
}

// TestNetStatsTraceMetricsRoundTrip exercises the introspection verbs over
// TCP: stats counters, the per-query span tree, and the Prometheus text.
func TestNetStatsTraceMetricsRoundTrip(t *testing.T) {
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

	const n = 500
	ts := make([]Tuple, n)
	for i := range ts {
		ts[i] = Tuple{Key: Key(i), Time: Timestamp(1000 + i), Payload: []byte("p")}
	}
	if err := cl.InsertBatch(ts); err != nil {
		t.Fatal(err)
	}
	if err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}

	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingested != n {
		t.Errorf("stats over TCP: Ingested = %d, want %d", st.Ingested, n)
	}
	if st.Flushes == 0 || st.Chunks == 0 {
		t.Errorf("stats over TCP: Flushes = %d, Chunks = %d, want > 0", st.Flushes, st.Chunks)
	}

	res, tr, err := cl.QueryTraced(Query{Keys: FullKeyRange(), Times: FullTimeRange()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != n {
		t.Errorf("traced query: %d tuples, want %d", len(res.Tuples), n)
	}
	if tr == nil || tr.Root == nil {
		t.Fatal("traced query returned no span tree")
	}
	if tr.Root.Name != "query" || tr.Root.Dur <= 0 {
		t.Errorf("root span = %q dur %v, want named query with positive duration", tr.Root.Name, tr.Root.Dur)
	}
	for _, name := range []string{"decompose", "dispatch", "merge", "chunk_subquery", "chunk_open", "scan"} {
		if tr.Root.Find(name) == nil {
			t.Errorf("trace lacks %q span:\n%s", name, tr.Format())
		}
	}
	// Stage durations nest inside the query latency.
	var stages int64
	for _, c := range tr.Root.Children {
		stages += int64(c.Dur)
	}
	if stages > int64(tr.Root.Dur) {
		t.Errorf("stage durations sum to %d > query %d", stages, int64(tr.Root.Dur))
	}

	text, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"waterwheel_ingest_tuples_total 500",
		"waterwheel_queries_total",
		"waterwheel_chunk_subqueries_total",
		`waterwheel_query_dispatch_seconds{policy="lada",quantile="0.5"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics over TCP lack %q", want)
		}
	}
}

func TestServeBadAddress(t *testing.T) {
	db := openTestDB(t, Options{})
	if _, err := db.Serve("256.256.256.256:99999"); err == nil {
		t.Error("bad listen address accepted")
	}
}

func TestDialUnreachable(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

func TestClientQueryAfterServerClose(t *testing.T) {
	db := openTestDB(t, Options{})
	ns, _ := db.Serve("127.0.0.1:0")
	cl, err := Dial(ns.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ns.Close()
	if _, err := cl.Query(Query{Keys: FullKeyRange(), Times: FullTimeRange()}); err == nil {
		t.Error("query against closed server succeeded")
	}
}

// TestNetAdminElasticOps drives the whole elastic lifecycle over the wire:
// scale out, two takeovers, scale in — then proves the data survived every
// step by querying through the same client.
func TestNetAdminElasticOps(t *testing.T) {
	db := openTestDB(t, Options{Nodes: 2, IndexServersPerNode: 2})
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

	const n = 2000
	tuples := make([]Tuple, n)
	for i := range tuples {
		tuples[i] = Tuple{Key: Key(uint64(i) * 0x9E3779B97F4A7C15), Time: Timestamp(i), Payload: []byte{byte(i)}}
	}
	if err := cl.InsertBatch(tuples[:n/2]); err != nil {
		t.Fatal(err)
	}

	slots, err := cl.ActiveSlots()
	if err != nil {
		t.Fatal(err)
	}
	id, err := cl.AddIndexServer()
	if err != nil {
		t.Fatal(err)
	}
	if id < len(slots) {
		t.Errorf("new slot id %d collides with existing slots %v", id, slots)
	}
	if err := cl.KillIndexServer(slots[0]); err != nil {
		t.Fatal(err)
	}
	if err := cl.KillIndexServer(slots[1]); err != nil {
		t.Fatal(err)
	}
	if err := cl.DecommissionIndexServer(id); err != nil {
		t.Fatal(err)
	}
	after, err := cl.ActiveSlots()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(slots) {
		t.Errorf("active slots after add+decommission: %v, want %d slots", after, len(slots))
	}

	if err := cl.InsertBatch(tuples[n/2:]); err != nil {
		t.Fatal(err)
	}
	if err := cl.Drain(); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Query(Query{Keys: FullKeyRange(), Times: FullTimeRange()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != n {
		t.Errorf("query after elastic churn returned %d tuples, want %d", len(res.Tuples), n)
	}

	// Bad requests fail cleanly and the connection survives.
	if _, err := cl.admin("resize-flux-capacitor", 0); err == nil {
		t.Error("unknown admin op accepted")
	}
	if _, err := cl.ActiveSlots(); err != nil {
		t.Errorf("slots after bad op: %v", err)
	}
}

// TestNetAdminUnknownOpIsBadRequest: an admin op the server does not know —
// a made-up one, or one an older client still sends — is refused as a bad
// request, like any other undecodable request, and the connection lives on.
func TestNetAdminUnknownOpIsBadRequest(t *testing.T) {
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
	for _, op := range []string{"promote", "start-standby", "resize-flux-capacitor"} {
		_, err := cl.admin(op, 0)
		var se *transport.StatusError
		if !errors.As(err, &se) || se.Code != transport.StatusBadRequest {
			t.Errorf("admin %q: got %v, want a StatusBadRequest", op, err)
		}
		if slots, err := cl.ActiveSlots(); err != nil || len(slots) == 0 {
			t.Errorf("slots after admin %q: %v, %v", op, slots, err)
		}
	}
}

// TestQueryReplyIsTheMergedResultEncoded: the query verb's reply, merged
// straight from the subqueries' runs, is byte for byte the wire form of the
// merged tuples — the sorted matches, cut at the limit, encoded as one run
// (which model's tests prove is what encoding the tuples gives) — for limit,
// filter, recurrence and empty queries on memtable-only, chunk-only and
// mixed plans. The data has what the runs must canonicalize: equal keys,
// a late tuple behind a later time of its key, equal (key, time) arriving
// with the larger payload first, and a duplicated group. In-process and
// traced results decode to the same tuples.
func TestQueryReplyIsTheMergedResultEncoded(t *testing.T) {
	db, cl, _ := netFixture(t, Options{}, 0)
	var all []Tuple
	insert := func(g0, g1 int) {
		t.Helper()
		var ts []Tuple
		for g := g0; g < g1; g++ {
			k, t0 := Key(uint64(g)*0x9E3779B97F4A7C15), Timestamp(1000+3*g)
			grp := []Tuple{
				{Key: k, Time: t0 + 2, Payload: []byte{'b', byte(g)}},
				{Key: k, Time: t0 + 2, Payload: []byte{'a', byte(g)}},
				{Key: k, Time: t0 + 1, Payload: []byte{'c'}},
			}
			ts = append(ts, grp...)
			if g%17 == 0 {
				ts = append(ts, grp...)
			}
		}
		if err := cl.InsertBatch(ts); err != nil {
			t.Fatal(err)
		}
		if err := cl.Drain(); err != nil {
			t.Fatal(err)
		}
		all = append(all, ts...)
	}
	// want is the oracle: every match of q, sorted, cut at the limit.
	want := func(q Query) []Tuple {
		var out []Tuple
		for i := range all {
			tp := &all[i]
			if q.Keys.Contains(tp.Key) && q.Times.Contains(tp.Time) && q.Filter.Matches(tp) &&
				(q.Recur == nil || q.Recur.Contains(tp.Time)) {
				out = append(out, *tp)
			}
		}
		sort.Slice(out, func(i, j int) bool { return model.CompareTuples(&out[i], &out[j]) < 0 })
		if q.Limit > 0 && q.Limit < len(out) {
			out = out[:q.Limit]
		}
		return out
	}
	// groupCut is the first tuple count of at least n that ends a key group,
	// where a LIMIT has one right answer.
	groupCut := func(n int) int {
		s := want(Query{Keys: FullKeyRange(), Times: FullTimeRange()})
		for n < len(s) && s[n].Key == s[n-1].Key {
			n++
		}
		return n
	}
	check := func(plan string) {
		t.Helper()
		full := Query{Keys: FullKeyRange(), Times: FullTimeRange()}
		for name, q := range map[string]Query{
			"all":    full,
			"limit":  {Keys: FullKeyRange(), Times: FullTimeRange(), Limit: groupCut(25)},
			"filter": {Keys: FullKeyRange(), Times: TimeRange{Lo: 1100, Hi: 1900}, Filter: Or(PayloadBytes(0, EQ, []byte{'a'}), TimeCmp(GT, 1500))},
			"recur":  {Keys: FullKeyRange(), Times: TimeRange{Lo: 1000, Hi: 2500}, Recur: &Recurrence{PeriodMillis: 10, StartMillis: 2, LengthMillis: 5}, Limit: 40},
			// Too many periods to enumerate windows for: no pruning, and the
			// limit must still wait for the recurrence filter.
			"recur-wide": {Keys: FullKeyRange(), Times: FullTimeRange(), Recur: &Recurrence{PeriodMillis: 10, StartMillis: 2, LengthMillis: 5}, Limit: 40},
			"empty":      {Keys: FullKeyRange(), Times: TimeRange{Lo: 1 << 40, Hi: 1 << 41}},
		} {
			w := want(q)
			reply, err := cl.call("query", model.AppendQuery(nil, &q))
			if err != nil {
				t.Fatalf("%s/%s: %v", plan, name, err)
			}
			res, err := model.DecodeResult(bytes.Clone(reply))
			if err != nil {
				t.Fatalf("%s/%s: %v", plan, name, err)
			}
			oracle := []model.Run{{Buf: model.AppendTuples(nil, w), N: len(w)}}
			if enc, _ := model.AppendMergedResult(nil, res, oracle, 0); !bytes.Equal(reply, enc) {
				t.Fatalf("%s/%s: the reply is not the wire form of the %d merged tuples", plan, name, len(w))
			}
			in, err := db.Query(q)
			if err != nil || !sameTuples(in.Tuples, w) || (len(w) == 0) != (in.Tuples == nil) {
				t.Fatalf("%s/%s: in process %d tuples (%v), want %d", plan, name, len(in.Tuples), err, len(w))
			}
			tr, _, err := cl.QueryTraced(q)
			if err != nil || !sameTuples(tr.Tuples, w) {
				t.Fatalf("%s/%s: traced %d tuples (%v), want %d", plan, name, len(tr.Tuples), err, len(w))
			}
		}
	}
	insert(0, 300)
	check("memtable")
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.Buffered != 0 || st.Chunks == 0 {
		t.Fatalf("after Flush: %d buffered, %d chunks", st.Buffered, st.Chunks)
	}
	check("chunks")
	insert(300, 450)
	check("mixed")
}
