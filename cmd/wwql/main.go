// Command wwql is the query/insert client for a running waterwheel
// server.
//
// Usage:
//
//	wwql -addr 127.0.0.1:7070 insert 42 1700000000000 hello
//	wwql -addr 127.0.0.1:7070 query -keys 0:100 -times 0:2000000000000
//	wwql -addr 127.0.0.1:7070 query -keys 0:100 -daily 09:00-17:00
//	wwql -addr 127.0.0.1:7070 query -keys 0:100 -daily 22:00-02:00
//	wwql -addr 127.0.0.1:7070 trace -keys 0:100 -times 0:2000000000000
//	wwql -addr 127.0.0.1:7070 agg -kind sum -field 0 -keys 0:100 -times 0:2000000000000
//	wwql -addr 127.0.0.1:7070 stats
//	wwql -addr 127.0.0.1:7070 metrics
//	wwql -addr 127.0.0.1:7070 flush | drain
//
// trace runs the query like query does but additionally prints the
// coordinator's span tree — decomposition, dispatch, per-chunk reads with
// cache and bloom-skip detail, and merge, each with its wall time.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"waterwheel"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wwql: "+format+"\n", args...)
	os.Exit(1)
}

func parseRange(s string) (lo, hi uint64, err error) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("want lo:hi, got %q", s)
	}
	lo, err = strconv.ParseUint(parts[0], 10, 64)
	if err != nil {
		return
	}
	hi, err = strconv.ParseUint(parts[1], 10, 64)
	return
}

// parseDaily parses a "hh:mm-hh:mm" recurring daily window ("between
// 09:00 and 17:00 daily") into a Recurrence. A window that ends before it
// starts crosses midnight: 22:00-02:00 is four hours a night. The one time
// with hour 24 is 24:00, the end of the day.
func parseDaily(s string) (*waterwheel.Recurrence, error) {
	parts := strings.SplitN(s, "-", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("want hh:mm-hh:mm, got %q", s)
	}
	minuteOfDay := func(v string) (int64, error) {
		hm := strings.SplitN(v, ":", 2)
		if len(hm) != 2 {
			return 0, fmt.Errorf("want hh:mm, got %q", v)
		}
		h, err := strconv.Atoi(hm[0])
		if err != nil || h < 0 || h > 24 {
			return 0, fmt.Errorf("bad hour %q", hm[0])
		}
		m, err := strconv.Atoi(hm[1])
		if err != nil || m < 0 || m > 59 || h == 24 && m != 0 {
			return 0, fmt.Errorf("bad minute %q", hm[1])
		}
		return int64(h)*60 + int64(m), nil
	}
	from, err := minuteOfDay(parts[0])
	if err != nil {
		return nil, err
	}
	to, err := minuteOfDay(parts[1])
	if err != nil {
		return nil, err
	}
	length := to - from
	if length < 0 {
		length += 24 * 60
	}
	if length == 0 {
		return nil, fmt.Errorf("window %q is empty", s)
	}
	return waterwheel.Daily(from*60_000, length*60_000), nil
}

// parseQueryArgs parses the shared query/trace flags into a query and the
// tuple print limit.
func parseQueryArgs(cmd string, args []string) (waterwheel.Query, int) {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	keys := fs.String("keys", "", "key range lo:hi (default: all)")
	times := fs.String("times", "", "time range lo:hi in ms (default: all)")
	daily := fs.String("daily", "", "recurring daily window hh:mm-hh:mm (UTC), e.g. 09:00-17:00")
	limit := fs.Int("limit", 20, "max tuples to print (0 = all)")
	fs.Parse(args)
	q := waterwheel.Query{Keys: waterwheel.FullKeyRange(), Times: waterwheel.FullTimeRange()}
	if *keys != "" {
		lo, hi, err := parseRange(*keys)
		if err != nil {
			fatalf("bad -keys: %v", err)
		}
		q.Keys = waterwheel.KeyRange{Lo: waterwheel.Key(lo), Hi: waterwheel.Key(hi)}
	}
	if *times != "" {
		lo, hi, err := parseRange(*times)
		if err != nil {
			fatalf("bad -times: %v", err)
		}
		q.Times = waterwheel.TimeRange{Lo: waterwheel.Timestamp(lo), Hi: waterwheel.Timestamp(hi)}
	}
	if *daily != "" {
		rc, err := parseDaily(*daily)
		if err != nil {
			fatalf("bad -daily: %v", err)
		}
		q.Recur = rc
	}
	return q, *limit
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "server address")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fatalf("usage: wwql [-addr host:port] insert|query|trace|agg|stats|metrics|flush|drain ...")
	}

	cl, err := waterwheel.Dial(*addr)
	if err != nil {
		fatalf("dial %s: %v", *addr, err)
	}
	defer cl.Close()

	switch args[0] {
	case "insert":
		if len(args) < 3 {
			fatalf("usage: insert <key> <timestamp-ms> [payload]")
		}
		key, err := strconv.ParseUint(args[1], 10, 64)
		if err != nil {
			fatalf("bad key: %v", err)
		}
		ts, err := strconv.ParseInt(args[2], 10, 64)
		if err != nil {
			fatalf("bad timestamp: %v", err)
		}
		var payload []byte
		if len(args) > 3 {
			payload = []byte(args[3])
		}
		if err := cl.Insert(waterwheel.Tuple{
			Key: waterwheel.Key(key), Time: waterwheel.Timestamp(ts), Payload: payload,
		}); err != nil {
			fatalf("insert: %v", err)
		}
		fmt.Println("ok")

	case "query", "trace":
		q, limit := parseQueryArgs(args[0], args[1:])
		var (
			res *waterwheel.Result
			tr  *waterwheel.QueryTrace
			err error
		)
		if args[0] == "trace" {
			res, tr, err = cl.QueryTraced(q)
		} else {
			res, err = cl.Query(q)
		}
		if err != nil {
			fatalf("%s: %v", args[0], err)
		}
		fmt.Printf("%d tuples (%d subqueries, %d leaves read, %d pruned, %d bytes)\n",
			len(res.Tuples), res.SubQueries, res.LeavesRead, res.LeavesSkipped, res.BytesRead)
		for i := range res.Tuples {
			if limit > 0 && i >= limit {
				fmt.Printf("... %d more\n", len(res.Tuples)-i)
				break
			}
			t := &res.Tuples[i]
			fmt.Printf("key=%d time=%d payload=%q\n", t.Key, t.Time, t.Payload)
		}
		if tr != nil {
			fmt.Print(tr.Format())
		}

	case "agg":
		fs := flag.NewFlagSet("agg", flag.ExitOnError)
		keys := fs.String("keys", "", "key range lo:hi (default: all)")
		times := fs.String("times", "", "time range lo:hi in ms (default: all)")
		kind := fs.String("kind", "count", "aggregate: count|min|max|sum")
		field := fs.Uint("field", 0, "payload offset of the aggregated uint64 field")
		fs.Parse(args[1:])
		k, err := waterwheel.ParseAggKind(*kind)
		if err != nil {
			fatalf("bad -kind: %v", err)
		}
		q := waterwheel.AggregateQuery{
			Keys: waterwheel.FullKeyRange(), Times: waterwheel.FullTimeRange(),
			Kind: k, Field: uint32(*field),
		}
		if *keys != "" {
			lo, hi, err := parseRange(*keys)
			if err != nil {
				fatalf("bad -keys: %v", err)
			}
			q.Keys = waterwheel.KeyRange{Lo: waterwheel.Key(lo), Hi: waterwheel.Key(hi)}
		}
		if *times != "" {
			lo, hi, err := parseRange(*times)
			if err != nil {
				fatalf("bad -times: %v", err)
			}
			q.Times = waterwheel.TimeRange{Lo: waterwheel.Timestamp(lo), Hi: waterwheel.Timestamp(hi)}
		}
		res, err := cl.Aggregate(q)
		if err != nil {
			fatalf("agg: %v", err)
		}
		if v, ok := res.Value(); ok {
			fmt.Printf("%s = %d\n", k, v)
		} else {
			fmt.Printf("%s = undefined (no tuples carry the field)\n", k)
		}
		fmt.Printf("count=%d values=%d (%d subqueries, %d chunks from metadata, %d leaves pushed down, %d scanned, %d skipped, %d bytes read)\n",
			res.Count, res.Values, res.SubQueries, res.MetaChunks, res.PushdownLeaves, res.LeavesRead, res.LeavesSkipped, res.BytesRead)

	case "metrics":
		text, err := cl.Metrics()
		if err != nil {
			fatalf("metrics: %v", err)
		}
		fmt.Print(text)

	case "stats":
		st, err := cl.Stats()
		if err != nil {
			fatalf("stats: %v", err)
		}
		fmt.Printf("ingested=%d buffered=%d chunks=%d schema-version=%d\n",
			st.Ingested, st.Buffered, st.Chunks, st.SchemaVersion)

	case "flush":
		if err := cl.Flush(); err != nil {
			fatalf("flush: %v", err)
		}
		fmt.Println("ok")

	case "drain":
		if err := cl.Drain(); err != nil {
			fatalf("drain: %v", err)
		}
		fmt.Println("ok")

	default:
		fatalf("unknown command %q", args[0])
	}
}
