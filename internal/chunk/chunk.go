// Package chunk defines Waterwheel's immutable data-chunk format: the
// serialized form of a flushed in-memory template B+ tree (paper §III-A).
// The layout keeps everything a subquery needs for pruning — leaf
// boundaries, per-leaf extents, per-leaf time-range bloom sketches — in a
// single contiguous header block, so a query server fetches the header's
// index prefix once (cacheable) and then reads only the leaf extents
// selected by the key range and the bloom filters (§IV-B, §VI-B: "the data
// layout in our data chunks allows the system to read only the needed leaf
// nodes").
//
// Layout (one format; the magic's last byte is its version):
//
//	[8B magic "WWCHUNK2"][4B header length H]
//	[fixed fields: count, minT, maxT, keyLo, keyHi, nLeaves, flags]
//	[(nLeaves-1) × 8B leaf boundary keys]
//	[nLeaves × 36B directory {offset, length, count, minT, maxT}]
//	[nLeaves × 16B exact per-leaf key bounds {minKey, maxKey}]
//	[flagBloom: nLeaves × {4B sketch length, sketch bytes}]
//	[flagSecondary, older chunks only: 4B attribute offset,
//	 nLeaves × {4B filter length, filter bytes} — skipped, never written]
//	--- index prefix ends at offset IndexLen (= H without flagAgg) ---
//	[flagAgg: pre-aggregate block, see agg.go]
//	--- header ends at offset H ---
//	[leaf 0 columns][leaf 1 columns]…
//
// The header is read as two units. The index prefix [0, IndexLen) is all
// a range subquery needs to select and scan leaves; the pre-aggregate
// block [IndexLen, H) is read only by aggregates. Meta records IndexLen at
// build time (the format itself does not store it: it is where the
// sketches end, or an older chunk's secondary section), ParseHeader
// accepts either the whole header or exactly the index prefix, and
// WithAggs adds the block to an index-only header.
//
// Leaf bodies are columns, key-sorted (see v2.go for the encodings):
//
//	[4B keyColLen][4B tsColLen][4B lenColLen]
//	[key column][ts column][len column][payload bytes]
//
// Empty leaves have zero-length bodies. All decode paths bounds-check
// before slicing and return ErrCorrupt on malformed input — a corrupt
// chunk must never panic or over-read.
package chunk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"waterwheel/internal/bloom"
	"waterwheel/internal/core"
	"waterwheel/internal/model"
)

// magicV2 opens every chunk. Its last byte is the format version — the one
// place a version lives: '2' parses, anything else is
// ErrUnsupportedVersion (the row-encoded "WWCHUNK1" of early builds
// included).
var magicV2 = [8]byte{'W', 'W', 'C', 'H', 'U', 'N', 'K', '2'}

// ErrCorrupt reports a malformed chunk.
var ErrCorrupt = errors.New("chunk: corrupt data")

// ErrUnsupportedVersion reports a well-formed Waterwheel chunk magic whose
// format version this build does not speak — distinct from ErrCorrupt so a
// version skew fails loudly instead of as "corrupt data".
var ErrUnsupportedVersion = errors.New("chunk: unsupported format version")

const (
	flagBloom = 1 << iota
	// flagSecondary marks the per-leaf secondary attribute filters that
	// older builds could write. ParseHeader steps over the section; Build
	// never sets the bit.
	flagSecondary
	flagAgg
)

// checkMagic validates the first 8 bytes of a chunk.
func checkMagic(prefix []byte) error {
	if len(prefix) < 8 {
		return fmt.Errorf("%w: short prefix", ErrCorrupt)
	}
	if string(prefix[:7]) != string(magicV2[:7]) {
		return fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if prefix[7] != magicV2[7] {
		return fmt.Errorf("%w: magic version byte %q", ErrUnsupportedVersion, prefix[7])
	}
	return nil
}

// fpRate is the false-positive target of the leaf time sketches.
const fpRate = 0.01

// bucketMillis is the time mini-range width of the leaf time sketches and
// the pre-aggregate buckets. Each sketch and each agg block records the
// width it was built with, so a reader never assumes it.
const bucketMillis = 1000

// BuildOptions tunes chunk construction.
type BuildOptions struct {
	// DisableBloom omits the sketches (ablation switch).
	DisableBloom bool
	// DisableAgg omits the pre-aggregate block (ablation switch). The
	// block summarizes the big-endian uint64 at payload offset 0.
	DisableAgg bool
}

// LeafInfo locates one leaf inside the chunk body.
type LeafInfo struct {
	// Offset/Length are absolute byte positions within the chunk.
	Offset, Length int64
	// Count is the number of tuples in the leaf.
	Count int
	// MinT/MaxT bound the leaf's timestamps (valid when Count > 0).
	MinT, MaxT model.Timestamp
}

// Meta summarizes a chunk for the metadata server.
type Meta struct {
	Count            int
	MinTime, MaxTime model.Timestamp
	Keys             model.KeyRange
	Leaves           int
	// HeaderLen is the byte length of the header block.
	HeaderLen int
	// IndexLen is the byte length of the header's index prefix: everything
	// before the pre-aggregate block, HeaderLen when there is none.
	IndexLen int
	// Size is the total chunk size in bytes.
	Size int64
	// Agg summarizes the designated aggregate field over the whole chunk
	// (nil when built with DisableAgg). Registered with the
	// chunk's metadata so the coordinator can answer aggregate subqueries
	// over fully covered chunks without dispatching them.
	Agg *model.ChunkAgg
}

// Build serializes a flush snapshot into a chunk, returning the bytes and
// metadata. It transcodes the snapshot's columns straight into chunk
// columns: no model.Tuple exists between a FlushSnapshot and a query
// result.
func Build(snap *core.FlushSnapshot, opts BuildOptions) ([]byte, Meta, error) {
	if snap == nil || snap.Count == 0 {
		return nil, Meta{}, errors.New("chunk: empty snapshot")
	}
	return buildV2(snap, opts)
}

func appendU32(b []byte, v uint32) []byte {
	var t [4]byte
	binary.BigEndian.PutUint32(t[:], v)
	return append(b, t[:]...)
}

func appendU64(b []byte, v uint64) []byte {
	var t [8]byte
	binary.BigEndian.PutUint64(t[:], v)
	return append(b, t[:]...)
}

// Header is the parsed header block of a chunk — the "template" caching
// unit of the query servers.
type Header struct {
	Meta
	// Bounds are the leaf separators (len = Leaves-1).
	Bounds []model.Key
	// Dir locates each leaf.
	Dir []LeafInfo
	// Sketches holds each leaf's time sketch (nil entries when bloom is
	// disabled or the leaf is empty).
	Sketches []*bloom.TimeSketch
	// LeafKeys bounds each leaf's keys exactly. Entries of empty leaves
	// are zero and must be gated on Dir.Count.
	LeafKeys []model.KeyRange
	// HasAgg reports whether the pre-aggregate block is present and
	// parsed.
	HasAgg bool
	// AggUnloaded reports a header parsed from the index prefix alone: the
	// chunk has a pre-aggregate block, and WithAggs loads it.
	AggUnloaded bool
	// AggField is the payload offset of the pre-aggregated uint64 field;
	// valid only when HasAgg.
	AggField uint32
	// LeafAggs holds each leaf's pre-aggregate buckets (len = Leaves when
	// HasAgg; nil otherwise).
	LeafAggs []LeafAgg
}

// payloadU64 extracts the big-endian uint64 at the given payload offset.
func payloadU64(p []byte, off uint32) (uint64, bool) {
	if int(off)+8 > len(p) {
		return 0, false
	}
	return binary.BigEndian.Uint64(p[off : off+8]), true
}

// peekHeaderLen returns the header block length from a chunk prefix of at
// least 12 bytes. A Waterwheel magic with any version byte but this
// build's returns ErrUnsupportedVersion.
func peekHeaderLen(prefix []byte) (int, error) {
	if len(prefix) < 12 {
		return 0, fmt.Errorf("%w: short prefix", ErrCorrupt)
	}
	if err := checkMagic(prefix); err != nil {
		return 0, err
	}
	return int(binary.BigEndian.Uint32(prefix[8:12])), nil
}

// ParseHeader decodes the header block from whatever prefix of the chunk
// buf holds. Given at least HeaderLen bytes it parses every section. Given
// exactly the index prefix (IndexLen bytes of a chunk with a pre-aggregate
// block) it parses everything but that block and sets AggUnloaded. Any
// other short buffer is ErrCorrupt.
func ParseHeader(buf []byte) (*Header, error) {
	hlen, err := peekHeaderLen(buf)
	if err != nil {
		return nil, err
	}
	const fixed = 8 + 4 + 8 + 8 + 8 + 8 + 8 + 4 + 1
	if hlen < fixed {
		return nil, fmt.Errorf("%w: header too small", ErrCorrupt)
	}
	if len(buf) > hlen {
		buf = buf[:hlen]
	}
	if len(buf) < fixed {
		return nil, fmt.Errorf("%w: header truncated (%d < %d)", ErrCorrupt, len(buf), hlen)
	}
	h := &Header{}
	h.HeaderLen = hlen
	h.Count = int(binary.BigEndian.Uint64(buf[12:20]))
	h.MinTime = model.Timestamp(binary.BigEndian.Uint64(buf[20:28]))
	h.MaxTime = model.Timestamp(binary.BigEndian.Uint64(buf[28:36]))
	h.Keys.Lo = model.Key(binary.BigEndian.Uint64(buf[36:44]))
	h.Keys.Hi = model.Key(binary.BigEndian.Uint64(buf[44:52]))
	nLeaves := int(binary.BigEndian.Uint32(buf[52:56]))
	flags := buf[56]
	h.Leaves = nLeaves
	if nLeaves < 1 || nLeaves > 1<<24 {
		return nil, fmt.Errorf("%w: leaf count %d", ErrCorrupt, nLeaves)
	}
	const known = flagBloom | flagSecondary | flagAgg
	if flags&^known != 0 {
		return nil, fmt.Errorf("%w: unknown flags %#x", ErrCorrupt, flags&^known)
	}
	pos := fixed
	// Bounds, directory, per-leaf key bounds.
	if len(buf) < pos+(nLeaves-1)*8+nLeaves*36+nLeaves*16 {
		return nil, fmt.Errorf("%w: directory truncated", ErrCorrupt)
	}
	h.Bounds = make([]model.Key, nLeaves-1)
	for i := range h.Bounds {
		h.Bounds[i] = model.Key(binary.BigEndian.Uint64(buf[pos:]))
		pos += 8
	}
	h.Dir = make([]LeafInfo, nLeaves)
	var totalLen int64
	expectOff := int64(hlen)
	for i := range h.Dir {
		h.Dir[i].Offset = int64(binary.BigEndian.Uint64(buf[pos:]))
		h.Dir[i].Length = int64(binary.BigEndian.Uint64(buf[pos+8:]))
		h.Dir[i].Count = int(binary.BigEndian.Uint32(buf[pos+16:]))
		h.Dir[i].MinT = model.Timestamp(binary.BigEndian.Uint64(buf[pos+20:]))
		h.Dir[i].MaxT = model.Timestamp(binary.BigEndian.Uint64(buf[pos+28:]))
		pos += 36
		// Leaf extents must tile the body contiguously in order; anything
		// else is corruption that must not reach the read path.
		if h.Dir[i].Length < 0 || h.Dir[i].Offset != expectOff {
			return nil, fmt.Errorf("%w: leaf %d extent [%d,+%d) breaks body tiling at %d",
				ErrCorrupt, i, h.Dir[i].Offset, h.Dir[i].Length, expectOff)
		}
		expectOff += h.Dir[i].Length
		totalLen += h.Dir[i].Length
	}
	h.Size = int64(hlen) + totalLen
	h.LeafKeys = make([]model.KeyRange, nLeaves)
	for i := range h.LeafKeys {
		h.LeafKeys[i].Lo = model.Key(binary.BigEndian.Uint64(buf[pos:]))
		h.LeafKeys[i].Hi = model.Key(binary.BigEndian.Uint64(buf[pos+8:]))
		pos += 16
		if h.Dir[i].Count > 0 && h.LeafKeys[i].Lo > h.LeafKeys[i].Hi {
			return nil, fmt.Errorf("%w: leaf %d key bounds inverted", ErrCorrupt, i)
		}
	}
	h.Sketches = make([]*bloom.TimeSketch, nLeaves)
	if flags&flagBloom != 0 {
		for i := 0; i < nLeaves; i++ {
			if pos+4 > len(buf) {
				return nil, fmt.Errorf("%w: sketch block truncated", ErrCorrupt)
			}
			slen := int(binary.BigEndian.Uint32(buf[pos:]))
			pos += 4
			if slen == 0 {
				continue
			}
			if pos+slen > len(buf) {
				return nil, fmt.Errorf("%w: sketch truncated", ErrCorrupt)
			}
			sk, _, err := bloom.DecodeTimeSketch(buf[pos : pos+slen])
			if err != nil {
				return nil, fmt.Errorf("%w: sketch %d: %v", ErrCorrupt, i, err)
			}
			h.Sketches[i] = sk
			pos += slen
		}
	}
	// Older builds could write per-leaf secondary attribute filters here.
	// Their chunks hold acked data, so the section is stepped over — the 4B
	// attribute offset, then one length-prefixed filter per leaf — and
	// nothing reads it. The skip goes with this v2 reader when the format
	// moves to WWCHUNK3.
	if flags&flagSecondary != 0 {
		if pos+4 > len(buf) {
			return nil, fmt.Errorf("%w: secondary offset truncated", ErrCorrupt)
		}
		pos += 4
		for i := 0; i < nLeaves; i++ {
			if pos+4 > len(buf) {
				return nil, fmt.Errorf("%w: secondary block truncated", ErrCorrupt)
			}
			slen := int(binary.BigEndian.Uint32(buf[pos:]))
			pos += 4
			if slen > len(buf)-pos {
				return nil, fmt.Errorf("%w: secondary filter %d overruns the header", ErrCorrupt, i)
			}
			pos += slen
		}
	}
	// The index prefix ends here, or at hlen when no agg block follows.
	hasAgg := flags&flagAgg != 0
	h.IndexLen = hlen
	if hasAgg {
		h.IndexLen = pos
	}
	switch {
	case len(buf) == hlen:
		if hasAgg {
			if err := parseAggBlock(h, buf[pos:]); err != nil {
				return nil, err
			}
		}
	case hasAgg && len(buf) == pos:
		h.AggUnloaded = true
	default:
		return nil, fmt.Errorf("%w: header truncated (%d < %d)", ErrCorrupt, len(buf), hlen)
	}
	return h, nil
}

// WithAggs returns a copy of the index-only header h with the
// pre-aggregate block parsed from block, the chunk's bytes [IndexLen,
// HeaderLen). h is not modified: a cached index header stays shared while
// aggregate readers hold the copy.
func (h *Header) WithAggs(block []byte) (*Header, error) {
	if !h.AggUnloaded {
		return nil, fmt.Errorf("%w: header has no unloaded pre-aggregate block", ErrCorrupt)
	}
	if len(block) != h.HeaderLen-h.IndexLen {
		return nil, fmt.Errorf("%w: pre-aggregate block is %d bytes, want %d", ErrCorrupt, len(block), h.HeaderLen-h.IndexLen)
	}
	full := *h
	full.AggUnloaded = false
	if err := parseAggBlock(&full, block); err != nil {
		return nil, err
	}
	return &full, nil
}

// SelectLeaves returns the indices of leaves a subquery must read for the
// given key and time ranges, plus the number of key-overlapping leaves that
// were pruned (by leaf time bounds or bloom sketches). Set useBloom=false
// to ablate sketch pruning.
func (h *Header) SelectLeaves(kr model.KeyRange, tr model.TimeRange, useBloom bool) (read []int, pruned int) {
	if !kr.IsValid() || !tr.IsValid() {
		return nil, 0
	}
	lo := sort.Search(len(h.Bounds), func(i int) bool { return kr.Lo < h.Bounds[i] })
	// Leaves lo..hi are the ones the key range reaches: read is sized for
	// them once instead of growing leaf by leaf.
	hi := min(sort.Search(len(h.Bounds), func(i int) bool { return kr.Hi < h.Bounds[i] }), h.Leaves-1)
	if hi >= lo {
		read = make([]int, 0, hi-lo+1)
	}
	for i := lo; i <= hi; i++ {
		d := h.Dir[i]
		if d.Count == 0 {
			continue
		}
		if d.MaxT < tr.Lo || d.MinT > tr.Hi {
			pruned++
			continue
		}
		if useBloom && h.Sketches[i] != nil && !h.Sketches[i].MayOverlap(int64(tr.Lo), int64(tr.Hi)) {
			pruned++
			continue
		}
		read = append(read, i)
	}
	return read, pruned
}

// ScanLeafColsWith visits leaf li's tuples matching the ranges and filter
// in key order as raw (key, time, payload) columns, stopping early when fn
// returns false. cols is caller-owned scratch, so a multi-leaf scan
// decodes every leaf into the same buffers. Payloads alias body; filters
// evaluate against the columns directly, so no model.Tuple is built
// anywhere on this path.
func (h *Header) ScanLeafColsWith(cols *LeafColumns, li int, body []byte, kr model.KeyRange, tr model.TimeRange, filter *model.Filter, fn func(model.Key, model.Timestamp, []byte) bool) error {
	if err := h.DecodeColumns(li, body, cols); err != nil {
		return err
	}
	n := len(cols.Keys)
	// Leaves are key-sorted: binary-search the first candidate, stop past
	// the range. The column scan touches only key/time words until a tuple
	// matches — no per-tuple header decode.
	lo := sort.Search(n, func(j int) bool { return cols.Keys[j] >= kr.Lo })
	for j := lo; j < n; j++ {
		if cols.Keys[j] > kr.Hi {
			return nil
		}
		if cols.Times[j] < tr.Lo || cols.Times[j] > tr.Hi {
			continue
		}
		p := cols.Payload[cols.Starts[j]:cols.Starts[j+1]]
		if !filter.MatchesCols(cols.Keys[j], cols.Times[j], p) {
			continue
		}
		if !fn(cols.Keys[j], cols.Times[j], p) {
			return nil
		}
	}
	return nil
}
