// Structure-of-arrays leaf storage: the column types shared by the live
// template-tree leaves and the flush snapshots they hand to the chunk
// builder.
//
// A leaf holds exactly four allocations regardless of tuple count: a key
// column, a timestamp column, a payload-reference column, and an
// append-only byte arena holding every payload back to back in arrival
// order. Payload bytes are copied into the arena on insert, so the tree
// never retains caller buffers; once written, arena bytes are immutable —
// inserts only append, merges only move the reference column — which is
// what makes zero-copy payload views safe to hand out under the leaf
// latch and makes a FlushReset snapshot immutable by construction (the
// live leaf abandons its buffers wholesale and starts fresh).
package core

import (
	"encoding/binary"

	"waterwheel/internal/model"
)

// PayloadRef packs a payload's location in its leaf arena into one machine
// word: byte offset in the upper 40 bits, length in the lower 24. Payloads
// of refEscapeLen (16 MiB − 1) bytes or more store the sentinel length and
// an 8-byte big-endian length prefix in the arena before the bytes, so no
// payload size is unrepresentable.
type PayloadRef uint64

const (
	refLenBits   = 24
	refLenMask   = 1<<refLenBits - 1
	refEscapeLen = refLenMask
)

// arenaEnsure grows the arena to fit need more bytes, doubling capacity.
// Plain append switches to ~1.25x growth past 256 bytes, which re-copies
// a busy arena far more often; doubling keeps the amortized copy cost at
// one byte moved per byte appended and halves the allocation traffic the
// garbage collector has to keep up with on the insert hot path.
func arenaEnsure(arena []byte, need int) []byte {
	if cap(arena)-len(arena) >= need {
		return arena
	}
	c := 2 * cap(arena)
	if c < len(arena)+need {
		c = len(arena) + need
	}
	if c < 64 {
		c = 64
	}
	nb := make([]byte, len(arena), c)
	copy(nb, arena)
	return nb
}

// arenaAppend copies p into the arena and returns the grown arena and the
// reference addressing the copy.
func arenaAppend(arena []byte, p []byte) ([]byte, PayloadRef) {
	off := uint64(len(arena))
	if len(p) >= refEscapeLen {
		var hdr [8]byte
		binary.BigEndian.PutUint64(hdr[:], uint64(len(p)))
		arena = arenaEnsure(arena, 8+len(p))
		arena = append(arena, hdr[:]...)
		arena = append(arena, p...)
		return arena, PayloadRef(off<<refLenBits | refEscapeLen)
	}
	arena = arenaEnsure(arena, len(p))
	arena = append(arena, p...)
	return arena, PayloadRef(off<<refLenBits | uint64(len(p)))
}

// arenaPayload resolves a reference to its payload bytes. The returned
// slice aliases the arena and must be treated as read-only.
func arenaPayload(arena []byte, r PayloadRef) []byte {
	off := uint64(r) >> refLenBits
	n := uint64(r) & refLenMask
	if n == refEscapeLen {
		n = binary.BigEndian.Uint64(arena[off:])
		off += 8
	}
	return arena[off : off+n : off+n]
}

// arenaPayloadLen returns a reference's payload length without slicing.
func arenaPayloadLen(arena []byte, r PayloadRef) int {
	n := uint64(r) & refLenMask
	if n == refEscapeLen {
		n = binary.BigEndian.Uint64(arena[uint64(r)>>refLenBits:])
	}
	return int(n)
}

// LeafCols is one leaf's tuples as parallel columns: entry j is the tuple
// (Keys[j], Times[j], payload addressed by Refs[j] in Arena). Keys are
// sorted; equal keys appear in arrival order. Flush snapshots expose their
// leaves in this form so the chunk encoder transcodes column to column
// without materializing tuples.
type LeafCols struct {
	Keys  []model.Key
	Times []model.Timestamp
	Refs  []PayloadRef
	Arena []byte
}

// Len returns the number of tuples in the leaf.
func (c *LeafCols) Len() int { return len(c.Keys) }

// Payload returns tuple j's payload bytes. The slice aliases the arena and
// must be treated as read-only.
func (c *LeafCols) Payload(j int) []byte { return arenaPayload(c.Arena, c.Refs[j]) }

// PayloadLen returns tuple j's payload length without slicing the arena.
func (c *LeafCols) PayloadLen(j int) int { return arenaPayloadLen(c.Arena, c.Refs[j]) }
