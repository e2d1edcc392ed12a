package model

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Binary layout of an encoded tuple:
//
//	[8B key][8B timestamp][4B payload length][payload bytes]
//
// All integers are big-endian so encoded tuples sort like their keys when
// compared lexicographically on the key prefix.

// tupleHeaderSize is the fixed prefix of an encoded tuple.
const tupleHeaderSize = 8 + 8 + 4

// ErrShortBuffer is returned when a decode target does not contain a full
// encoded tuple.
var ErrShortBuffer = errors.New("model: buffer too short for encoded tuple")

// EncodedSize returns the number of bytes AppendTuple will write for t.
func EncodedSize(t *Tuple) int { return tupleHeaderSize + len(t.Payload) }

// AppendTuple appends the binary encoding of t to dst and returns the
// extended slice.
func AppendTuple(dst []byte, t *Tuple) []byte {
	return appendRecord(dst, t.Key, t.Time, t.Payload)
}

// appendRecord is AppendTuple from the tuple's columns.
func appendRecord(dst []byte, k Key, ts Timestamp, p []byte) []byte {
	var hdr [tupleHeaderSize]byte
	binary.BigEndian.PutUint64(hdr[0:8], uint64(k))
	binary.BigEndian.PutUint64(hdr[8:16], uint64(ts))
	binary.BigEndian.PutUint32(hdr[16:20], uint32(len(p)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, p...)
	return dst
}

// DecodeTuple decodes one tuple from the front of buf, returning the tuple
// and the number of bytes consumed. The returned payload aliases buf (capped,
// so appending to it never writes into the next tuple); copy it if buf is
// reused.
func DecodeTuple(buf []byte) (Tuple, int, error) {
	if len(buf) < tupleHeaderSize {
		return Tuple{}, 0, ErrShortBuffer
	}
	n := int(binary.BigEndian.Uint32(buf[16:20]))
	total := tupleHeaderSize + n
	if len(buf) < total {
		return Tuple{}, 0, fmt.Errorf("%w: need %d bytes, have %d", ErrShortBuffer, total, len(buf))
	}
	return Tuple{
		Key:     Key(binary.BigEndian.Uint64(buf[0:8])),
		Time:    Timestamp(binary.BigEndian.Uint64(buf[8:16])),
		Payload: buf[tupleHeaderSize:total:total],
	}, total, nil
}

// AppendTuples appends the encodings of all tuples to dst, growing it at
// most once, to the exact encoded size.
func AppendTuples(dst []byte, ts []Tuple) []byte {
	total := 0
	for i := range ts {
		total += EncodedSize(&ts[i])
	}
	dst = slices.Grow(dst, total)
	for i := range ts {
		dst = AppendTuple(dst, &ts[i])
	}
	return dst
}

// CountTuples walks the tuple headers in buf and returns how many encoded
// tuples it holds, without touching payload bytes. It errors where a
// decode of the same buffer would.
func CountTuples(buf []byte) (int, error) {
	n := 0
	for len(buf) > 0 {
		if len(buf) < tupleHeaderSize {
			return 0, ErrShortBuffer
		}
		total := tupleHeaderSize + int(binary.BigEndian.Uint32(buf[16:20]))
		if len(buf) < total {
			return 0, fmt.Errorf("%w: need %d bytes, have %d", ErrShortBuffer, total, len(buf))
		}
		buf = buf[total:]
		n++
	}
	return n, nil
}

// RecordKey reads the key of the encoded tuple at the front of rec.
func RecordKey(rec []byte) Key {
	k, _, _ := recordHead(rec)
	return k
}

// AppendRecords appends to dst one slice of buf per encoded tuple, in
// order, each capped at its own end — the form an insert keeps from the
// wire to the WAL. It walks the headers only. buf must hold whole records,
// as CountTuples checks; a cut-off one panics.
func AppendRecords(dst [][]byte, buf []byte) [][]byte {
	for len(buf) > 0 {
		_, _, n := recordHead(buf)
		dst = append(dst, buf[:n:n])
		buf = buf[n:]
	}
	return dst
}

// DecodeTuples decodes every tuple in buf. Payloads alias buf. The result
// is allocated exactly: a cheap header walk counts the tuples first, so
// the append loop never reallocates.
func DecodeTuples(buf []byte) ([]Tuple, error) {
	n, err := CountTuples(buf)
	if err != nil {
		return nil, err
	}
	return DecodeTuplesInto(make([]Tuple, 0, n), buf)
}

// DecodeTuplesInto appends every tuple in buf to dst — the capacity-hint
// form of DecodeTuples for callers that know the count (e.g. from a chunk
// leaf directory) or reuse a scratch slice. Payloads alias buf.
func DecodeTuplesInto(dst []Tuple, buf []byte) ([]Tuple, error) {
	for len(buf) > 0 {
		t, n, err := DecodeTuple(buf)
		if err != nil {
			return nil, err
		}
		dst = append(dst, t)
		buf = buf[n:]
	}
	return dst, nil
}
