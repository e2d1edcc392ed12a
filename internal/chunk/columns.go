package chunk

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"

	"waterwheel/internal/bloom"
	"waterwheel/internal/core"
	"waterwheel/internal/model"
)

// Column encodings of a leaf body (the chunk layout is in chunk.go):
//
//	[key column]   1 encoding byte, then either count×8B fixed words or
//	               uvarint deltas (keys are sorted, so deltas are ≥ 0);
//	               the builder picks whichever is smaller.
//	[ts column]    zigzag varints: first timestamp, first delta, then
//	               delta-of-deltas — near-constant arrival cadence costs
//	               ~1 byte per tuple.
//	[len column]   1 encoding byte: constant payload length as a single
//	               uvarint (the common fixed-schema case), or one uvarint
//	               per tuple.
//	[payloads]     concatenated payload bytes (the remaining body).
const (
	keyEncFixed = 0 // count × 8B big-endian words
	keyEncDelta = 1 // uvarint first key, then uvarint deltas

	lenEncConst = 0 // single uvarint payload length shared by all tuples
	lenEncVar   = 1 // one uvarint payload length per tuple
)

// leafScratch holds reusable column buffers for the builder.
type leafScratch struct {
	keys, ts, lens []byte
}

// appendLeafColumns appends one non-empty leaf's body up to its payloads —
// the three column lengths and the columns — transcoding the snapshot's
// columns directly: no model.Tuple is ever built on this path. The payloads
// follow in the chunk, copied straight from the snapshot (build).
func appendLeafColumns(dst []byte, lc *core.LeafCols, sc *leafScratch) []byte {
	n := lc.Len()
	var vb [binary.MaxVarintLen64]byte

	// Key column: try sorted-delta uvarints, fall back to fixed 8B words
	// when the keys are too spread out for deltas to win (dense random
	// uint64 keys varint-expand past fixed width).
	sc.keys = append(sc.keys[:0], keyEncDelta)
	prev := uint64(0)
	for _, key := range lc.Keys {
		k := uint64(key)
		m := binary.PutUvarint(vb[:], k-prev)
		sc.keys = append(sc.keys, vb[:m]...)
		prev = k
	}
	if len(sc.keys) > 1+8*n {
		sc.keys = append(sc.keys[:0], keyEncFixed)
		for _, key := range lc.Keys {
			sc.keys = appendU64(sc.keys, uint64(key))
		}
	}

	// Timestamp column: delta-of-delta zigzag varints.
	sc.ts = sc.ts[:0]
	var prevT, prevD int64
	for j, ts := range lc.Times {
		t := int64(ts)
		var v int64
		switch j {
		case 0:
			v = t
		case 1:
			v = t - prevT
			prevD = v
		default:
			d := t - prevT
			v = d - prevD
			prevD = d
		}
		m := binary.PutVarint(vb[:], v)
		sc.ts = append(sc.ts, vb[:m]...)
		prevT = t
	}

	// Payload-length column: fixed-schema payloads collapse to one word.
	// Lengths come off the reference column without touching the arena.
	first := lc.PayloadLen(0)
	same := true
	for j := 1; j < n; j++ {
		if lc.PayloadLen(j) != first {
			same = false
			break
		}
	}
	if same {
		sc.lens = append(sc.lens[:0], lenEncConst)
		m := binary.PutUvarint(vb[:], uint64(first))
		sc.lens = append(sc.lens, vb[:m]...)
	} else {
		sc.lens = append(sc.lens[:0], lenEncVar)
		for j := 0; j < n; j++ {
			m := binary.PutUvarint(vb[:], uint64(lc.PayloadLen(j)))
			sc.lens = append(sc.lens, vb[:m]...)
		}
	}

	dst = appendU32(dst, uint32(len(sc.keys)))
	dst = appendU32(dst, uint32(len(sc.ts)))
	dst = appendU32(dst, uint32(len(sc.lens)))
	dst = append(dst, sc.keys...)
	dst = append(dst, sc.ts...)
	return append(dst, sc.lens...)
}

// build serializes a flush snapshot in the columnar layout.
func build(snap *core.FlushSnapshot, opts BuildOptions) ([]byte, Meta, error) {
	nLeaves := len(snap.Leaves)

	dir := make([]LeafInfo, nLeaves)
	leafKeys := make([]model.KeyRange, nLeaves)
	sketches := make([][]byte, nLeaves)
	leafAggs := make([]LeafAgg, nLeaves)
	chunkAgg := &model.ChunkAgg{Field: aggField}
	// The leaves' columns are encoded first, into one buffer for the whole
	// chunk (cols, leaf i's ending at colEnd[i]); each leaf's length is then
	// known — its columns and its payload bytes — and so is the chunk's. The
	// chunk is one exact allocation, and the payloads are copied into it
	// once, straight from the snapshot, behind their leaf's columns.
	var cols []byte
	colEnd := make([]int, nLeaves)
	var sc leafScratch
	for i := range snap.Leaves {
		lc := &snap.Leaves[i]
		n := lc.Len()
		start := len(cols)
		payBytes := 0
		info := LeafInfo{Count: n}
		if n > 0 {
			info.MinT, info.MaxT = lc.Times[0], lc.Times[0]
			leafKeys[i], _ = snap.LeafKeyRange(i)
		}
		var sk *bloom.TimeSketch
		if !opts.DisableBloom && n > 0 {
			est := n/4 + 16
			sk = bloom.NewTimeSketch(bucketMillis, est, fpRate)
		}
		for j := 0; j < n; j++ {
			payBytes += lc.PayloadLen(j)
			ts := lc.Times[j]
			if ts < info.MinT {
				info.MinT = ts
			}
			if ts > info.MaxT {
				info.MaxT = ts
			}
			if sk != nil {
				sk.AddTime(int64(ts))
			}
			chunkAgg.Count++
			if v, ok := payloadU64(lc.Payload(j), aggField); ok {
				chunkAgg.AddValue(v)
			}
		}
		if n > 0 {
			cols = appendLeafColumns(cols, lc, &sc)
			leafAggs[i] = buildLeafAgg(lc, bucketMillis, int64(info.MinT), int64(info.MaxT))
		}
		colEnd[i] = len(cols)
		info.Length = int64(len(cols) - start + payBytes)
		dir[i] = info // Offset fixed up after the header size is known.
		if sk != nil {
			sketches[i] = sk.AppendTo(nil)
		}
	}

	dirAt := fixedLen + (nLeaves-1)*8
	indexLen := dirAt + nLeaves*dirEntryLen + nLeaves*16
	// Sections are parsed back to back, so the sketches exist only when
	// their flag is set.
	if !opts.DisableBloom {
		for _, s := range sketches {
			indexLen += 4 + len(s)
		}
	}
	hlen := indexLen + aggBlockSize(leafAggs)
	off := int64(hlen)
	for i := range dir {
		dir[i].Offset = off
		off += dir[i].Length
	}

	// The sums — each leaf body's, the pre-aggregate block's and last the
	// index prefix's, which covers the other two — are written as zeros
	// and filled in once the bytes they cover are in place.
	out := make([]byte, 0, off)
	out = append(out, magic[:]...)
	out = appendU32(out, uint32(hlen))
	out = appendU32(out, uint32(indexLen))
	out = appendU32(out, 0)
	out = appendU32(out, 0)
	out = appendU64(out, uint64(snap.Count))
	out = appendU64(out, uint64(snap.MinTime))
	out = appendU64(out, uint64(snap.MaxTime))
	out = appendU64(out, uint64(snap.Keys.Lo))
	out = appendU64(out, uint64(snap.Keys.Hi))
	out = appendU32(out, uint32(nLeaves))
	flags := byte(0)
	if !opts.DisableBloom {
		flags |= flagBloom
	}
	out = append(out, flags)
	for _, b := range snap.Bounds {
		out = appendU64(out, uint64(b))
	}
	for _, d := range dir {
		out = appendU64(out, uint64(d.Offset))
		out = appendU64(out, uint64(d.Length))
		out = appendU32(out, uint32(d.Count))
		out = appendU64(out, uint64(d.MinT))
		out = appendU64(out, uint64(d.MaxT))
		out = appendU32(out, 0)
	}
	for _, kr := range leafKeys {
		out = appendU64(out, uint64(kr.Lo))
		out = appendU64(out, uint64(kr.Hi))
	}
	if !opts.DisableBloom {
		for _, s := range sketches {
			out = appendU32(out, uint32(len(s)))
			out = append(out, s...)
		}
	}
	out = appendAggBlock(out, leafAggs)
	if len(out) != hlen {
		return nil, Meta{}, fmt.Errorf("chunk: header size miscomputed: %d != %d", len(out), hlen)
	}
	start := 0
	for i := range snap.Leaves {
		out = append(out, cols[start:colEnd[i]]...)
		start = colEnd[i]
		lc := &snap.Leaves[i]
		for j := 0; j < lc.Len(); j++ {
			out = append(out, lc.Payload(j)...)
		}
	}
	if int64(len(out)) != off {
		return nil, Meta{}, fmt.Errorf("chunk: body size miscomputed: %d != %d", len(out), off)
	}
	for i, d := range dir {
		binary.BigEndian.PutUint32(out[dirAt+i*dirEntryLen+36:], crc32.Checksum(out[d.Offset:d.Offset+d.Length], castagnoli))
	}
	binary.BigEndian.PutUint32(out[aggSumAt:], crc32.Checksum(out[indexLen:hlen], castagnoli))
	binary.BigEndian.PutUint32(out[indexSumAt:], indexSum(out[:indexLen]))

	meta := Meta{
		Count:     snap.Count,
		MinTime:   snap.MinTime,
		MaxTime:   snap.MaxTime,
		Keys:      snap.Keys,
		Leaves:    nLeaves,
		HeaderLen: hlen,
		IndexLen:  indexLen,
		Size:      int64(len(out)),
		Agg:       chunkAgg,
	}
	return out, meta, nil
}

// LeafColumns is one decoded leaf as parallel columns. Payload aliases
// the leaf body; tuple j's payload is Payload[Starts[j]:Starts[j+1]].
type LeafColumns struct {
	Keys  []model.Key
	Times []model.Timestamp
	// Starts has len(Keys)+1 entries indexing tuple payloads.
	Starts  []uint32
	Payload []byte
}

// colsPool recycles decoded column buffers across leaf scans. A fresh
// LeafColumns per subquery made a full scan allocate three column
// slices per selected leaf; borrowing from the pool amortizes them to
// zero in steady state.
var colsPool = sync.Pool{New: func() any { return new(LeafColumns) }}

// BorrowColumns returns reusable column scratch for DecodeColumns /
// ScanLeafColsWith. Return it with ReturnColumns when the scan is done — and
// only once nothing aliases its buffers.
func BorrowColumns() *LeafColumns { return colsPool.Get().(*LeafColumns) }

// ReturnColumns puts column scratch back in the pool. The Payload alias
// into the leaf body is dropped so the pool never pins chunk bodies.
func ReturnColumns(cols *LeafColumns) {
	if cols == nil {
		return
	}
	cols.Payload = nil
	colsPool.Put(cols)
}

func growKeys(s []model.Key, n int) []model.Key {
	if cap(s) < n {
		return make([]model.Key, n)
	}
	return s[:n]
}

func growTimes(s []model.Timestamp, n int) []model.Timestamp {
	if cap(s) < n {
		return make([]model.Timestamp, n)
	}
	return s[:n]
}

func growU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

// DecodeColumns decodes leaf li's body into cols, reusing its buffers.
// Every slice access is bounds-checked up front: corrupt bodies return
// ErrCorrupt, never panic.
func (h *Header) DecodeColumns(li int, body []byte, cols *LeafColumns) error {
	n := h.Dir[li].Count
	cols.Keys = growKeys(cols.Keys, 0)
	cols.Times = growTimes(cols.Times, 0)
	cols.Starts = growU32(cols.Starts, 0)
	cols.Payload = nil
	if n == 0 {
		return nil
	}
	if len(body) < 12 {
		return fmt.Errorf("%w: leaf %d body too small", ErrCorrupt, li)
	}
	kl := int64(binary.BigEndian.Uint32(body[0:4]))
	tl := int64(binary.BigEndian.Uint32(body[4:8]))
	ll := int64(binary.BigEndian.Uint32(body[8:12]))
	if 12+kl+tl+ll > int64(len(body)) {
		return fmt.Errorf("%w: leaf %d columns overflow body", ErrCorrupt, li)
	}
	// The timestamp column holds exactly n varints of ≥ 1 byte each, so a
	// directory count the body cannot possibly hold is corruption — this
	// also bounds the allocations below by the body size.
	if int64(n) > tl {
		return fmt.Errorf("%w: leaf %d count %d exceeds ts column", ErrCorrupt, li, n)
	}
	keys := body[12 : 12+kl]
	ts := body[12+kl : 12+kl+tl]
	lens := body[12+kl+tl : 12+kl+tl+ll]
	pay := body[12+kl+tl+ll:]

	cols.Keys = growKeys(cols.Keys, n)
	if len(keys) < 1 {
		return fmt.Errorf("%w: leaf %d key column empty", ErrCorrupt, li)
	}
	switch keys[0] {
	case keyEncFixed:
		if len(keys) != 1+8*n {
			return fmt.Errorf("%w: leaf %d fixed key column length", ErrCorrupt, li)
		}
		p := keys[1:]
		for j := 0; j < n; j++ {
			cols.Keys[j] = model.Key(binary.BigEndian.Uint64(p[8*j:]))
		}
	case keyEncDelta:
		p := keys[1:]
		var acc uint64
		for j := 0; j < n; j++ {
			// Sorted-key deltas are short varints — decode up to three
			// bytes (21 bits) with straight-line loads and fall back to
			// binary.Uvarint only for the rare wide gap.
			var d uint64
			var m int
			switch {
			case len(p) > 0 && p[0] < 0x80:
				d, m = uint64(p[0]), 1
			case len(p) > 1 && p[1] < 0x80:
				d, m = uint64(p[0]&0x7f)|uint64(p[1])<<7, 2
			case len(p) > 2 && p[2] < 0x80:
				d, m = uint64(p[0]&0x7f)|uint64(p[1]&0x7f)<<7|uint64(p[2])<<14, 3
			default:
				if d, m = binary.Uvarint(p); m <= 0 {
					return fmt.Errorf("%w: leaf %d key varint %d", ErrCorrupt, li, j)
				}
			}
			p = p[m:]
			acc += d
			cols.Keys[j] = model.Key(acc)
		}
		if len(p) != 0 {
			return fmt.Errorf("%w: leaf %d key column trailing bytes", ErrCorrupt, li)
		}
	default:
		return fmt.Errorf("%w: leaf %d key encoding %d", ErrCorrupt, li, keys[0])
	}

	cols.Times = growTimes(cols.Times, n)
	{
		p := ts
		var prevT, prevD int64
		for j := 0; j < n; j++ {
			// Near-constant cadence makes most delta-of-deltas one or two
			// bytes; unzigzag inline and fall back to binary.Varint for
			// the rest.
			var v int64
			var m int
			switch {
			case len(p) > 0 && p[0] < 0x80:
				u := uint64(p[0])
				v, m = int64(u>>1)^-int64(u&1), 1
			case len(p) > 1 && p[1] < 0x80:
				u := uint64(p[0]&0x7f) | uint64(p[1])<<7
				v, m = int64(u>>1)^-int64(u&1), 2
			default:
				if v, m = binary.Varint(p); m <= 0 {
					return fmt.Errorf("%w: leaf %d ts varint %d", ErrCorrupt, li, j)
				}
			}
			p = p[m:]
			switch j {
			case 0:
				prevT = v
			case 1:
				prevD = v
				prevT += v
			default:
				prevD += v
				prevT += prevD
			}
			cols.Times[j] = model.Timestamp(prevT)
		}
		if len(p) != 0 {
			return fmt.Errorf("%w: leaf %d ts column trailing bytes", ErrCorrupt, li)
		}
	}

	cols.Starts = growU32(cols.Starts, n+1)
	if len(lens) < 1 {
		return fmt.Errorf("%w: leaf %d len column empty", ErrCorrupt, li)
	}
	switch lens[0] {
	case lenEncConst:
		c, m := binary.Uvarint(lens[1:])
		if m <= 0 || 1+m != len(lens) {
			return fmt.Errorf("%w: leaf %d const len column", ErrCorrupt, li)
		}
		if c > uint64(len(pay)) || c*uint64(n) != uint64(len(pay)) {
			return fmt.Errorf("%w: leaf %d payload size mismatch", ErrCorrupt, li)
		}
		for j := 0; j <= n; j++ {
			cols.Starts[j] = uint32(uint64(j) * c)
		}
	case lenEncVar:
		p := lens[1:]
		var acc uint64
		cols.Starts[0] = 0
		for j := 0; j < n; j++ {
			v, m := binary.Uvarint(p)
			if m <= 0 {
				return fmt.Errorf("%w: leaf %d len varint %d", ErrCorrupt, li, j)
			}
			p = p[m:]
			acc += v
			if acc > uint64(len(pay)) {
				return fmt.Errorf("%w: leaf %d payloads overflow body", ErrCorrupt, li)
			}
			cols.Starts[j+1] = uint32(acc)
		}
		if len(p) != 0 || acc != uint64(len(pay)) {
			return fmt.Errorf("%w: leaf %d payload size mismatch", ErrCorrupt, li)
		}
	default:
		return fmt.Errorf("%w: leaf %d len encoding %d", ErrCorrupt, li, lens[0])
	}
	cols.Payload = pay
	return nil
}
