package model

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// runOf builds a run from tuples already in canonical order.
func runOf(ts []Tuple) Run {
	if len(ts) == 0 {
		return Run{}
	}
	return Run{Buf: AppendTuples(nil, ts), N: len(ts)}
}

// canonical returns a sorted copy of ts.
func canonical(ts []Tuple) []Tuple {
	out := slices.Clone(ts)
	slices.SortFunc(out, func(a, b Tuple) int { return CompareTuples(&a, &b) })
	return out
}

// collidingPart is n tuples drawn from few keys, times and payloads, so
// equal keys, equal (key, time) with different payloads and exact
// duplicates all occur, in canonical order.
func collidingPart(rng *rand.Rand, n int) []Tuple {
	out := make([]Tuple, n)
	for i := range out {
		out[i] = Tuple{
			Key:     Key(rng.Intn(8)),
			Time:    Timestamp(rng.Intn(4)),
			Payload: []byte{byte(rng.Intn(3))}[:rng.Intn(2)],
		}
	}
	return canonical(out)
}

// TestMergeRunsMatchesSortAndTupleMerge: MergeRuns of random runs is the
// sorted concatenation, cut at the limit, and the same bytes as
// MergeSortedTuples of the same parts — with equal keys, equal (key, time)
// under different payloads, duplicates and empty runs, at limits 0, 1, n
// and n+1, with and without a prefix already in dst.
func TestMergeRunsMatchesSortAndTupleMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	prefix := []byte("header room")
	for trial := 0; trial < 300; trial++ {
		parts := make([][]Tuple, rng.Intn(6))
		runs := make([]Run, len(parts))
		var all []Tuple
		for i := range parts {
			parts[i] = collidingPart(rng, rng.Intn(30))
			runs[i] = runOf(parts[i])
			all = append(all, parts[i]...)
		}
		sorted := canonical(all)
		n := len(sorted)
		for _, limit := range []int{0, 1, n / 2, n, n + 1} {
			want := sorted
			if limit > 0 && limit < n {
				want = want[:limit]
			}
			wantBytes := AppendTuples(nil, want)
			got, m := MergeRuns(nil, runs, limit)
			if m != len(want) || !bytes.Equal(got, wantBytes) {
				t.Fatalf("trial %d limit %d: merged %d records, want %d; bytes equal: %v", trial, limit, m, len(want), bytes.Equal(got, wantBytes))
			}
			if tm := AppendTuples(nil, MergeSortedTuples(parts, limit)); !bytes.Equal(got, tm) {
				t.Fatalf("trial %d limit %d: MergeRuns and MergeSortedTuples disagree", trial, limit)
			}
			withRoom, m2 := MergeRuns(slices.Clone(prefix), runs, limit)
			if m2 != m || !bytes.Equal(withRoom[:len(prefix)], prefix) || !bytes.Equal(withRoom[len(prefix):], wantBytes) {
				t.Fatalf("trial %d limit %d: merging behind a prefix changed the records", trial, limit)
			}
		}
	}
}

// TestMergeRunsSingleRunIsNotCopied: one run that holds everything comes
// back as its own bytes, cut at the limit.
func TestMergeRunsSingleRunIsNotCopied(t *testing.T) {
	r := runOf([]Tuple{{Key: 1}, {Key: 2, Payload: []byte("x")}, {Key: 3}})
	for _, c := range []struct{ limit, want int }{{0, 3}, {2, 2}} {
		got, n := MergeRuns(nil, []Run{{}, r, {}}, c.limit)
		if &got[0] != &r.Buf[0] {
			t.Fatalf("limit %d: the single run was copied", c.limit)
		}
		if n != c.want || len(got) != cutRecords(r.Buf, c.want) {
			t.Fatalf("limit %d: %d records in %d bytes", c.limit, n, len(got))
		}
	}
	if got, n := MergeRuns(nil, []Run{{}, {}}, 0); got != nil || n != 0 {
		t.Fatalf("merge of empty runs = %v, %d", got, n)
	}
}

// TestRunAppenderCanonicalizesArrivalOrder: records appended in scan order
// — keys ascending, equal keys in arrival order, so a late tuple sits after
// later times of its key — come out of Take in canonical order, as do
// records whose keys went down; records appended in canonical order come
// out as appended.
func TestRunAppenderCanonicalizesArrivalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	app := BorrowRunAppender()
	defer ReturnRunAppender(app)
	check := func(name string, in []Tuple) {
		t.Helper()
		for i := range in {
			app.Append(in[i].Key, in[i].Time, in[i].Payload)
		}
		if app.Len() != len(in) {
			t.Fatalf("%s: appender holds %d of %d records", name, app.Len(), len(in))
		}
		got := app.Take()
		if want := AppendTuples(nil, canonical(in)); got.N != len(in) || !bytes.Equal(got.Buf, want) || cap(got.Buf) != len(got.Buf) {
			t.Fatalf("%s: run of %d records is not the canonical encoding in an exactly sized buffer", name, got.N)
		}
		if app.Len() != 0 {
			t.Fatalf("%s: Take left %d records behind", name, app.Len())
		}
	}
	check("late tuple", []Tuple{
		{Key: 1, Time: 10}, {Key: 2, Time: 10}, {Key: 2, Time: 20}, {Key: 2, Time: 5},
		{Key: 3, Time: 7, Payload: []byte("b")}, {Key: 3, Time: 7, Payload: []byte("a")}, {Key: 4, Time: 1},
	})
	check("keys went down", []Tuple{{Key: 5}, {Key: 2}, {Key: 9, Time: 3}, {Key: 9, Time: 1}})
	for trial := 0; trial < 200; trial++ {
		// Scan order: ascending keys, equal keys in a random arrival order.
		in := collidingPart(rng, rng.Intn(40))
		for lo := 0; lo < len(in); {
			hi := lo + 1
			for hi < len(in) && in[hi].Key == in[lo].Key {
				hi++
			}
			rng.Shuffle(hi-lo, func(a, b int) { in[lo+a], in[lo+b] = in[lo+b], in[lo+a] })
			lo = hi
		}
		check("scan order", in)
		check("canonical", canonical(in))
		rng.Shuffle(len(in), func(a, b int) { in[a], in[b] = in[b], in[a] })
		check("any order", in)
	}
	if r := app.Take(); r.N != 0 || r.Buf != nil {
		t.Fatalf("empty appender took %+v", r)
	}
}

// TestAppendLimitedCutsAtTheCanonicalFirst: sources scanned in scan order
// (ascending keys, equal keys in any arrival order), each stopping where
// AppendLimited says, merge to the canonical first limit tuples of all of
// them — also when the limit falls inside a group of tying keys.
func TestAppendLimitedCutsAtTheCanonicalFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	app := BorrowRunAppender()
	defer ReturnRunAppender(app)
	for trial := 0; trial < 300; trial++ {
		var all []Tuple
		parts := make([][]Tuple, 1+rng.Intn(4))
		for i := range parts {
			in := collidingPart(rng, rng.Intn(30))
			for lo := 0; lo < len(in); {
				hi := lo + 1
				for hi < len(in) && in[hi].Key == in[lo].Key {
					hi++
				}
				rng.Shuffle(hi-lo, func(a, b int) { in[lo+a], in[lo+b] = in[lo+b], in[lo+a] })
				lo = hi
			}
			parts[i] = in
			all = append(all, in...)
		}
		limit := 1 + rng.Intn(len(all)+1)
		var runs []Run
		for _, in := range parts {
			for i := range in {
				if !app.AppendLimited(limit, in[i].Key, in[i].Time, in[i].Payload) {
					if app.Len() < limit || in[i].Key == in[i-1].Key {
						t.Fatalf("trial %d: refused a record with %d of %d appended, key %d after %d", trial, app.Len(), limit, in[i].Key, in[i-1].Key)
					}
					break
				}
			}
			runs = append(runs, app.Take())
		}
		want := canonical(all)[:min(limit, len(all))]
		if got, n := MergeRuns(nil, runs, limit); n != len(want) || !bytes.Equal(got, AppendTuples(nil, want)) {
			t.Fatalf("trial %d: limit %d over %d parts merged %d records, not the canonical first %d", trial, limit, len(parts), n, len(want))
		}
	}
}

// TestAppendMergedResultIsAppendResult: the reply written by merging runs
// behind the header is AppendResult's bytes for the merged tuples — the
// has-tuples flag unset and the count zero when nothing matched.
func TestAppendMergedResultIsAppendResult(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		parts := make([][]Tuple, rng.Intn(4))
		runs := make([]Run, len(parts))
		for i := range parts {
			parts[i] = collidingPart(rng, rng.Intn(20))
			runs[i] = runOf(parts[i])
		}
		limit := rng.Intn(10)
		r := &Result{QueryID: uint64(trial), SubQueries: len(runs), LeavesRead: rng.Intn(9), BytesRead: rng.Int63n(1 << 20), CacheHits: 2}
		if trial%3 == 0 {
			r.Agg = &AggPartial{Count: 4, Sum: 9}
		}
		got, n := AppendMergedResult(nil, r, runs, limit)
		r.Tuples = MergeSortedTuples(parts, limit)
		if want := AppendResult(nil, r); n != len(r.Tuples) || !bytes.Equal(got, want) {
			t.Fatalf("trial %d: %d merged tuples; reply bytes equal AppendResult's: %v", trial, n, bytes.Equal(got, want))
		}
	}
}
