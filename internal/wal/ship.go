package wal

import (
	"encoding/binary"
	"fmt"
	"time"

	"waterwheel/internal/transport"
)

// WAL shipping (log replication for hot standbys): a node exposes its log
// over the cluster RPC transport so a standby elsewhere can tail an
// owner's partition without sharing memory. One method carries everything
// — "wal.read" maps a (partition, offset, max) request to the same
// semantics as Partition.ReadBlocking, including ErrCompacted when the
// requested offset fell below the partition base: a long-poll, like a Kafka
// fetch, that parks at the head until a record arrives or shipLongPoll has
// passed (an empty reply). Both messages are fixed binary layouts, big-endian:
//
//	request   [u32 partition][i64 offset][u32 max]
//	response  ([u64 offset][u32 len][data])…

const shipMethod = "wal.read"

// shipSentinels: ErrCompacted crosses as a status code of its own.
var shipSentinels = transport.Sentinels{transport.StatusApp + 16: ErrCompacted}

const (
	shipRequestSize = 4 + 8 + 4
	shipRecordFixed = 8 + 4
	// maxShipBytes ends a response early (Read returns "up to" max records)
	// so one reply stays far below transport.MaxFrameBytes.
	maxShipBytes = 8 << 20
	// shipLongPoll bounds how long a wal.read parks at the head — and so how
	// long it can hold its caller, or transport.Server.Close.
	shipLongPoll = 100 * time.Millisecond
)

// RegisterShipping exposes every partition of l for remote tailing on the
// given transport server.
func RegisterShipping(srv *transport.Server, l *Log) {
	srv.Handle(shipMethod, func(payload []byte) ([]byte, error) {
		if len(payload) != shipRequestSize {
			return nil, transport.BadRequestf("wal: ship request of %d bytes, want %d", len(payload), shipRequestSize)
		}
		part := int(binary.BigEndian.Uint32(payload))
		offset := int64(binary.BigEndian.Uint64(payload[4:]))
		max := int(binary.BigEndian.Uint32(payload[12:]))
		if part >= l.Partitions() {
			return nil, fmt.Errorf("wal: ship: no partition %d", part)
		}
		recs, err := l.Partition(part).ReadBlocking(offset, max, Deadline(shipLongPoll))
		if err != nil {
			return nil, shipSentinels.Encode(err)
		}
		size := 0
		for i := range recs {
			if size += shipRecordFixed + len(recs[i].Data); size > maxShipBytes {
				recs = recs[:i+1]
				break
			}
		}
		out := make([]byte, 0, size)
		for _, r := range recs {
			out = binary.BigEndian.AppendUint64(out, uint64(r.Offset))
			out = binary.BigEndian.AppendUint32(out, uint32(len(r.Data)))
			out = append(out, r.Data...)
		}
		return out, nil
	})
}

// decodeShipped decodes a wal.read response. Record data aliases buf.
func decodeShipped(buf []byte) ([]Record, error) {
	var recs []Record
	for len(buf) > 0 {
		if len(buf) < shipRecordFixed {
			return nil, fmt.Errorf("wal: ship decode: %d trailing bytes", len(buf))
		}
		n := int(binary.BigEndian.Uint32(buf[8:]))
		if n > len(buf)-shipRecordFixed {
			return nil, fmt.Errorf("wal: ship decode: record of %d bytes in %d", n, len(buf)-shipRecordFixed)
		}
		end := shipRecordFixed + n
		recs = append(recs, Record{Offset: int64(binary.BigEndian.Uint64(buf)), Data: buf[shipRecordFixed:end:end]})
		buf = buf[end:]
	}
	return recs, nil
}

// RemoteTail tails one partition of a remote log over the transport — the
// Tail a standby uses when the WAL owner lives on another node.
type RemoteTail struct {
	c    *transport.Client
	part int
}

// NewRemoteTail builds a Tail reading partition part through client c.
func NewRemoteTail(c *transport.Client, part int) *RemoteTail {
	return &RemoteTail{c: c, part: part}
}

// ReadBlocking mirrors Partition.ReadBlocking: the server parks the call
// at the head; an empty read means its long-poll bound passed. The call
// cannot be recalled, so cancel is not consulted: it ends at that bound, or
// when the client is closed. ErrCompacted crosses as ErrCompacted.
func (rt *RemoteTail) ReadBlocking(offset int64, max int, _ <-chan struct{}) ([]Record, error) {
	if max < 0 {
		max = 0 // Partition.Read's "use the default"
	}
	req := binary.BigEndian.AppendUint32(make([]byte, 0, shipRequestSize), uint32(rt.part))
	req = binary.BigEndian.AppendUint64(req, uint64(offset))
	req = binary.BigEndian.AppendUint32(req, uint32(max))
	payload, err := rt.c.Call(shipMethod, req)
	if err != nil {
		return nil, shipSentinels.Decode(err)
	}
	return decodeShipped(payload)
}
