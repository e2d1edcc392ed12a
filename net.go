package waterwheel

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"

	"waterwheel/internal/model"
	"waterwheel/internal/transport"
)

// NetServer exposes a DB over TCP so external producers and analysts can
// insert and query without linking the library. The wire protocol is the
// internal multiplexing RPC transport: many requests in flight per
// connection, so slow queries never stall inserts. The data verbs (insert,
// query, agg, trace) carry internal/model's binary codecs; the cold stats
// and admin verbs, and the span tree inside a trace reply, are JSON — the
// encoding the HTTP debug endpoint already gives the same values.
type NetServer struct {
	db  *DB
	srv *transport.Server
	// Addr is the bound listen address.
	Addr string
}

// Status codes of the client verbs, beyond the transport's own.
const (
	statusClosed  = transport.StatusApp + iota // ErrClosed
	statusRetired                              // ErrRetired
	// statusBatch is a *BatchError; the payload is
	// [u64 Index][u64 Len][u8 status of the cause][u64 position]…, one
	// position per rejected tuple to the end of the payload, the message the
	// cause's.
	statusBatch
)

// batchStatusFixed is the statusBatch payload before the positions.
const batchStatusFixed = 8 + 8 + 1

// ErrBadBatchStatus reports a statusBatch reply whose payload is not a
// well-formed BatchError: cut short, or positions that are not a strictly
// ascending, non-empty subset of [0, Len) starting at Index.
var ErrBadBatchStatus = errors.New("waterwheel: malformed batch-error reply")

// wireSentinels are the errors that cross the wire as a status code of
// their own, so the client can hand back the same sentinel.
var wireSentinels = transport.Sentinels{statusClosed: ErrClosed, statusRetired: ErrRetired}

// wireError gives a handler's error the status code that lets the client
// rebuild it: a *BatchError with its positions, a sentinel as itself.
func wireError(err error) error {
	var be *BatchError
	if errors.As(err, &be) {
		p := make([]byte, 0, batchStatusFixed+8*len(be.Rejected))
		p = binary.BigEndian.AppendUint64(p, uint64(be.Index))
		p = binary.BigEndian.AppendUint64(p, uint64(be.Len))
		p = append(p, wireSentinels.Code(be.Err))
		for _, at := range be.Rejected {
			p = binary.BigEndian.AppendUint64(p, uint64(at))
		}
		return &transport.StatusError{Code: statusBatch, Msg: be.Err.Error(), Payload: p}
	}
	return wireSentinels.Encode(err)
}

// clientError turns a failed call's status back into the error the server
// returned, so errors.Is and errors.As work across the wire.
func clientError(err error) error {
	var se *transport.StatusError
	if errors.As(err, &se) && se.Code == statusBatch {
		be, derr := decodeBatchStatus(se.Payload)
		if derr != nil {
			return fmt.Errorf("%w (server said: %s)", derr, se.Msg)
		}
		be.Err = wireSentinels.Decode(&transport.StatusError{Code: se.Payload[batchStatusFixed-1], Msg: se.Msg})
		return be
	}
	return wireSentinels.Decode(err)
}

// decodeBatchStatus rebuilds a BatchError (all but its cause) from a
// statusBatch payload. The positions are counted by the payload's own
// length, so a hostile reply costs no more memory than the bytes it sent,
// and anything that is not a strictly ascending, non-empty run of positions
// below Len beginning at Index is ErrBadBatchStatus.
func decodeBatchStatus(p []byte) (*BatchError, error) {
	n := (len(p) - batchStatusFixed) / 8
	if n < 1 || batchStatusFixed+8*n != len(p) {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadBatchStatus, len(p))
	}
	index, size := binary.BigEndian.Uint64(p), binary.BigEndian.Uint64(p[8:])
	if size > math.MaxInt32 || uint64(n) > size {
		return nil, fmt.Errorf("%w: %d positions in a batch of %d", ErrBadBatchStatus, n, size)
	}
	be := &BatchError{Index: int(index), Len: int(size), Rejected: make([]int, n)}
	for i := range be.Rejected {
		at := binary.BigEndian.Uint64(p[batchStatusFixed+8*i:])
		if at >= size || (i > 0 && int(at) <= be.Rejected[i-1]) {
			return nil, fmt.Errorf("%w: position %d (entry %d) in a batch of %d", ErrBadBatchStatus, at, i, size)
		}
		be.Rejected[i] = int(at)
	}
	if index != uint64(be.Rejected[0]) {
		return nil, fmt.Errorf("%w: index %d, first position %d", ErrBadBatchStatus, index, be.Rejected[0])
	}
	return be, nil
}

// Serve starts a network front end for the DB on addr (use
// "127.0.0.1:0" for an ephemeral port).
func (db *DB) Serve(addr string) (*NetServer, error) {
	s := transport.NewServer()
	ns := &NetServer{db: db, srv: s}

	s.Handle("insert", func(payload []byte) ([]byte, error) {
		// The frame is already the batch in the form the WAL stores: one
		// record per tuple, model.AppendTuple's layout. One header walk
		// checks it, and the bytes go on as they are — the dispatcher cuts
		// them into records and scatters those by the key at each record's
		// head, and each server's partition copies its records once, into a
		// buffer of its own (wal.Partition.StartAppend), before the call
		// returns. A frame is its own allocation that the transport never
		// reuses, and nothing keeps it past the call. A frame that is not
		// whole records is refused entire, before anything is appended.
		n, err := model.CountTuples(payload)
		if err != nil {
			return nil, transport.BadRequestf("waterwheel: bad insert batch: %v", err)
		}
		// Do not ack over the wire what the log did not take; on failure the
		// returned BatchError tells the client which positions were rejected.
		if err := db.insertEncoded(payload, n); err != nil {
			return nil, wireError(err)
		}
		return nil, nil
	})
	s.Handle("query", func(payload []byte) ([]byte, error) {
		q, err := model.DecodeQuery(payload)
		if err != nil {
			return nil, transport.BadRequestf("waterwheel: bad query: %v", err)
		}
		reply, _, err := db.queryEncoded(q, false)
		if err != nil {
			return nil, wireError(err)
		}
		return reply, nil
	})
	s.Handle("agg", func(payload []byte) ([]byte, error) {
		q, err := model.DecodeAggregateQuery(payload)
		if err != nil {
			return nil, transport.BadRequestf("waterwheel: bad aggregate query: %v", err)
		}
		res, err := db.Aggregate(q)
		if err != nil {
			return nil, wireError(err)
		}
		return model.AppendAggResult(nil, res), nil
	})
	s.Handle("drain", func([]byte) ([]byte, error) {
		return nil, wireError(db.Drain())
	})
	s.Handle("flush", func([]byte) ([]byte, error) {
		return nil, wireError(db.Flush())
	})
	s.Handle("stats", func([]byte) ([]byte, error) {
		return json.Marshal(db.Stats())
	})
	// trace answers [u32 span-tree length][span tree, JSON][result]. The
	// span tree is complete only once the merge is, so the result, encoded
	// by the merge, is copied in behind it.
	s.Handle("trace", func(payload []byte) ([]byte, error) {
		q, err := model.DecodeQuery(payload)
		if err != nil {
			return nil, transport.BadRequestf("waterwheel: bad trace query: %v", err)
		}
		reply, tr, err := db.queryEncoded(q, true)
		if err != nil {
			return nil, wireError(err)
		}
		tree, err := json.Marshal(tr)
		if err != nil {
			return nil, err
		}
		out := binary.BigEndian.AppendUint32(make([]byte, 0, 4+len(tree)+len(reply)), uint32(len(tree)))
		return append(append(out, tree...), reply...), nil
	})
	s.Handle("admin", func(payload []byte) ([]byte, error) {
		var req adminRequest
		if err := json.Unmarshal(payload, &req); err != nil {
			return nil, transport.BadRequestf("waterwheel: bad admin request: %v", err)
		}
		var resp adminResponse
		var err error
		switch req.Op {
		case "add-server":
			resp.Server, err = db.AddIndexServer()
		case "decommission":
			err = db.DecommissionIndexServer(req.Server)
		case "kill":
			err = db.KillIndexServer(req.Server)
		case "slots":
			// Read-only: the response's slot list is the answer.
		default:
			err = transport.BadRequestf("waterwheel: unknown admin op %q", req.Op)
		}
		if err != nil {
			return nil, wireError(err)
		}
		resp.Slots = db.ActiveSlots()
		return json.Marshal(resp)
	})
	s.Handle("metrics", func([]byte) ([]byte, error) {
		var buf bytes.Buffer
		db.c.Telemetry().WritePrometheus(&buf)
		return buf.Bytes(), nil
	})

	bound, err := s.Listen(addr)
	if err != nil {
		return nil, err
	}
	ns.Addr = bound
	return ns, nil
}

// Close stops accepting network requests (the DB stays open).
func (ns *NetServer) Close() { ns.srv.Close() }

// Client talks to a NetServer.
type Client struct {
	c *transport.Client
}

// Dial connects to a Waterwheel network server.
func Dial(addr string) (*Client, error) {
	c, err := transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &Client{c: c}, nil
}

// call is transport.Client.Call with the server's error rebuilt.
func (cl *Client) call(method string, payload []byte) ([]byte, error) {
	out, err := cl.c.Call(method, payload)
	if err != nil {
		return nil, clientError(err)
	}
	return out, nil
}

// Insert sends one tuple.
func (cl *Client) Insert(t Tuple) error {
	return cl.InsertBatch([]Tuple{t})
}

// InsertBatch sends a batch of tuples in one request. A batch the server
// took only part of comes back as a *BatchError naming the rejected
// positions, as from DB.InsertBatch.
func (cl *Client) InsertBatch(ts []Tuple) error {
	bp := insertFrames.Get().(*[]byte)
	*bp = model.AppendTuples((*bp)[:0], ts)
	// transport.Client.Call writes the frame under its write lock before it
	// returns, whatever the answer, so the buffer is free for the next batch.
	_, err := cl.call("insert", *bp)
	if cap(*bp) <= maxPooledInsertFrame {
		insertFrames.Put(bp)
	}
	return err
}

// insertFrames recycles the clients' encoded insert batches.
var insertFrames = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledInsertFrame is the encoded batch size above which an insert
// buffer is left to the collector instead of going back to the pool.
const maxPooledInsertFrame = 1 << 20

// Query runs a query remotely. The result's tuple payloads alias the
// response buffer, which the result owns: they stay valid for as long as
// the result is referenced and are the caller's to read, not to append to.
func (cl *Client) Query(q Query) (*Result, error) {
	payload, err := cl.call("query", model.AppendQuery(nil, &q))
	if err != nil {
		return nil, err
	}
	return model.DecodeResult(payload)
}

// Aggregate runs an aggregate query remotely.
func (cl *Client) Aggregate(q AggregateQuery) (*AggResult, error) {
	payload, err := cl.call("agg", model.AppendAggregateQuery(nil, &q))
	if err != nil {
		return nil, err
	}
	return model.DecodeAggResult(payload)
}

// Drain waits server-side until all accepted tuples are queryable.
func (cl *Client) Drain() error {
	_, err := cl.call("drain", nil)
	return err
}

// Flush forces a server-side flush of all memtables.
func (cl *Client) Flush() error {
	_, err := cl.call("flush", nil)
	return err
}

// QueryTraced runs a query remotely and returns its execution trace — the
// span tree the coordinator recorded — alongside the result.
func (cl *Client) QueryTraced(q Query) (*Result, *QueryTrace, error) {
	payload, err := cl.call("trace", model.AppendQuery(nil, &q))
	if err != nil {
		return nil, nil, err
	}
	if len(payload) < 4 {
		return nil, nil, fmt.Errorf("waterwheel: trace reply of %d bytes", len(payload))
	}
	n, rest := int(binary.BigEndian.Uint32(payload)), payload[4:]
	if n > len(rest) {
		return nil, nil, fmt.Errorf("waterwheel: trace reply holds %d bytes, its span tree claims %d", len(rest), n)
	}
	var tr *QueryTrace
	if err := json.Unmarshal(rest[:n], &tr); err != nil {
		return nil, nil, err
	}
	res, err := model.DecodeResult(rest[n:])
	return res, tr, err
}

// Metrics fetches the server's Prometheus text exposition.
func (cl *Client) Metrics() (string, error) {
	payload, err := cl.call("metrics", nil)
	if err != nil {
		return "", err
	}
	return string(payload), nil
}

// adminRequest/adminResponse carry the elastic-operations admin verb.
// Every mutation answers with the post-operation active slot list, so an
// operator script can chain calls without a separate read.
type adminRequest struct {
	// Op is one of "add-server", "decommission", "kill", "slots".
	Op string
	// Server is the target slot (ignored by add-server and slots).
	Server int
}

type adminResponse struct {
	// Server is the new slot id (add-server only).
	Server int
	// Slots is the active slot set after the operation.
	Slots []int
}

func (cl *Client) admin(op string, server int) (adminResponse, error) {
	req, err := json.Marshal(adminRequest{Op: op, Server: server})
	if err != nil {
		return adminResponse{}, err
	}
	payload, err := cl.call("admin", req)
	if err != nil {
		return adminResponse{}, err
	}
	var resp adminResponse
	err = json.Unmarshal(payload, &resp)
	return resp, err
}

// AddIndexServer grows the remote cluster by one indexing server and
// returns the new slot id.
func (cl *Client) AddIndexServer() (int, error) {
	resp, err := cl.admin("add-server", 0)
	return resp.Server, err
}

// DecommissionIndexServer retires a remote slot, draining it out.
func (cl *Client) DecommissionIndexServer(i int) error {
	_, err := cl.admin("decommission", i)
	return err
}

// KillIndexServer hard-fails a remote slot's owner (fault drill); a fresh
// server takes over by replaying the slot's WAL partition.
func (cl *Client) KillIndexServer(i int) error {
	_, err := cl.admin("kill", i)
	return err
}

// ActiveSlots fetches the remote cluster's active indexing slots.
func (cl *Client) ActiveSlots() ([]int, error) {
	resp, err := cl.admin("slots", 0)
	return resp.Slots, err
}

// Stats fetches deployment counters.
func (cl *Client) Stats() (Stats, error) {
	payload, err := cl.call("stats", nil)
	if err != nil {
		return Stats{}, err
	}
	var s Stats
	err = json.Unmarshal(payload, &s)
	return s, err
}

// Close closes the connection.
func (cl *Client) Close() error { return cl.c.Close() }
