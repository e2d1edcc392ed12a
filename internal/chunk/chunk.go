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
//	[8B magic "WWCHUNK3"][4B header length H][4B index length I]
//	[4B index CRC][4B agg CRC]
//	[fixed fields: count, minT, maxT, keyLo, keyHi, nLeaves, flags]
//	[(nLeaves-1) × 8B leaf boundary keys]
//	[nLeaves × 40B directory {offset, length, count, minT, maxT, body CRC}]
//	[nLeaves × 16B exact per-leaf key bounds {minKey, maxKey}]
//	[flagBloom: nLeaves × {4B sketch length, sketch bytes}]
//	--- index prefix ends at offset I ---
//	[pre-aggregate block, see agg.go]
//	--- header ends at offset H ---
//	[leaf 0 columns][leaf 1 columns]…
//
// A reader fetches three kinds of unit, and each carries a CRC32C
// (Castagnoli, as WAL frames do). The index prefix [0, I) — everything a
// range subquery needs to select and scan leaves — is summed with its own
// sum field read as zero; it holds the other two kinds of sum. The agg CRC
// covers the pre-aggregate block [I, H), which only aggregates read. Each
// leaf's directory entry holds the CRC of that leaf's body. ParseHeader
// accepts either the whole header or exactly the index prefix, WithAggs
// adds the block to an index-only header, and CheckLeaf checks a body:
// each checks its sum before it parses, and a mismatch is ErrCorrupt.
//
// Leaf bodies are columns, key-sorted (see columns.go for the encodings):
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
	"hash/crc32"
	"sort"

	"waterwheel/internal/bloom"
	"waterwheel/internal/core"
	"waterwheel/internal/model"
)

// magic opens every chunk. Its last byte is the format version — the one
// place a version lives: '3' parses, anything else is
// ErrUnsupportedVersion (the unsummed "WWCHUNK2" and the row-encoded
// "WWCHUNK1" of earlier builds included).
var magic = [8]byte{'W', 'W', 'C', 'H', 'U', 'N', 'K', '3'}

// ErrCorrupt reports a malformed chunk.
var ErrCorrupt = errors.New("chunk: corrupt data")

// ErrUnsupportedVersion reports a well-formed Waterwheel chunk magic whose
// format version this build does not speak — distinct from ErrCorrupt so a
// version skew fails loudly instead of as "corrupt data".
var ErrUnsupportedVersion = errors.New("chunk: unsupported format version")

// flagBloom marks the sketch section, absent when built with DisableBloom.
const flagBloom = 1

// castagnoli is the CRC32C table every sum of the format uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	// fixedLen is the fixed part of the header: magic, H, I, the two sums,
	// count, minT, maxT, keyLo, keyHi, nLeaves and flags.
	fixedLen = 8 + 4 + 4 + 4 + 4 + 8 + 8 + 8 + 8 + 8 + 4 + 1
	// indexSumAt and aggSumAt are the offsets of the two header sums.
	indexSumAt = 16
	aggSumAt   = 20
	// dirEntryLen is one leaf's directory entry.
	dirEntryLen = 8 + 8 + 4 + 8 + 8 + 4
)

// CheckMagic validates the first 8 bytes of a chunk: ErrUnsupportedVersion
// for a Waterwheel chunk of another format version, ErrCorrupt for
// anything else that is not this build's.
func CheckMagic(prefix []byte) error {
	if len(prefix) < 8 {
		return fmt.Errorf("%w: short prefix", ErrCorrupt)
	}
	if string(prefix[:7]) != string(magic[:7]) {
		return fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if prefix[7] != magic[7] {
		return fmt.Errorf("%w: magic version byte %q", ErrUnsupportedVersion, prefix[7])
	}
	return nil
}

// indexSum is the CRC32C of an index prefix with its own sum field read as
// zero.
func indexSum(prefix []byte) uint32 {
	var zero [4]byte
	sum := crc32.Update(crc32.Checksum(prefix[:indexSumAt], castagnoli), castagnoli, zero[:])
	return crc32.Update(sum, castagnoli, prefix[indexSumAt+4:])
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
}

// LeafInfo locates one leaf inside the chunk body.
type LeafInfo struct {
	// Offset/Length are absolute byte positions within the chunk.
	Offset, Length int64
	// Count is the number of tuples in the leaf.
	Count int
	// MinT/MaxT bound the leaf's timestamps (valid when Count > 0).
	MinT, MaxT model.Timestamp
	// CRC is the CRC32C of the leaf body.
	CRC uint32
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
	// before the pre-aggregate block.
	IndexLen int
	// Size is the total chunk size in bytes.
	Size int64
	// Agg summarizes the designated aggregate field over the whole chunk.
	// Registered with the chunk's metadata so the coordinator can answer
	// aggregate subqueries over fully covered chunks without dispatching
	// them.
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
	return build(snap, opts)
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
	// HasAgg reports whether the pre-aggregate block is loaded: false for
	// a header parsed from the index prefix alone, until WithAggs.
	HasAgg bool
	// AggField is the payload offset of the pre-aggregated uint64 field;
	// valid only when HasAgg.
	AggField uint32
	// LeafAggs holds each leaf's pre-aggregate buckets (len = Leaves when
	// HasAgg; nil otherwise).
	LeafAggs []LeafAgg
	// aggSum is the pre-aggregate block's CRC, from the index prefix.
	aggSum uint32
}

// payloadU64 extracts the big-endian uint64 at the given payload offset.
func payloadU64(p []byte, off uint32) (uint64, bool) {
	if int(off)+8 > len(p) {
		return 0, false
	}
	return binary.BigEndian.Uint64(p[off : off+8]), true
}

// ParseHeader decodes the header block from whatever prefix of the chunk
// buf holds. Given at least HeaderLen bytes it parses every section. Given
// exactly the index prefix (IndexLen bytes) it parses everything but the
// pre-aggregate block, and WithAggs loads that later. Any other short
// buffer is ErrCorrupt, and so is a unit whose CRC does not match.
func ParseHeader(buf []byte) (*Header, error) {
	if err := CheckMagic(buf); err != nil {
		return nil, err
	}
	if len(buf) < fixedLen {
		return nil, fmt.Errorf("%w: header truncated (%d < %d)", ErrCorrupt, len(buf), fixedLen)
	}
	hlen := int(binary.BigEndian.Uint32(buf[8:12]))
	ilen := int(binary.BigEndian.Uint32(buf[12:16]))
	if ilen < fixedLen || ilen > hlen {
		return nil, fmt.Errorf("%w: index length %d outside [%d, %d]", ErrCorrupt, ilen, fixedLen, hlen)
	}
	if len(buf) > hlen {
		buf = buf[:hlen]
	}
	if len(buf) != ilen && len(buf) != hlen {
		return nil, fmt.Errorf("%w: header truncated (%d < %d)", ErrCorrupt, len(buf), hlen)
	}
	// The index sections parse from the summed prefix alone.
	idx := buf[:ilen]
	if sum := binary.BigEndian.Uint32(idx[indexSumAt:]); indexSum(idx) != sum {
		return nil, fmt.Errorf("%w: index prefix CRC mismatch", ErrCorrupt)
	}
	h := &Header{aggSum: binary.BigEndian.Uint32(idx[aggSumAt:])}
	h.HeaderLen, h.IndexLen = hlen, ilen
	h.Count = int(binary.BigEndian.Uint64(idx[24:32]))
	h.MinTime = model.Timestamp(binary.BigEndian.Uint64(idx[32:40]))
	h.MaxTime = model.Timestamp(binary.BigEndian.Uint64(idx[40:48]))
	h.Keys.Lo = model.Key(binary.BigEndian.Uint64(idx[48:56]))
	h.Keys.Hi = model.Key(binary.BigEndian.Uint64(idx[56:64]))
	nLeaves := int(binary.BigEndian.Uint32(idx[64:68]))
	flags := idx[68]
	h.Leaves = nLeaves
	if nLeaves < 1 || nLeaves > 1<<24 {
		return nil, fmt.Errorf("%w: leaf count %d", ErrCorrupt, nLeaves)
	}
	if flags&^flagBloom != 0 {
		return nil, fmt.Errorf("%w: unknown flags %#x", ErrCorrupt, flags&^flagBloom)
	}
	pos := fixedLen
	// Bounds, directory, per-leaf key bounds.
	if len(idx) < pos+(nLeaves-1)*8+nLeaves*dirEntryLen+nLeaves*16 {
		return nil, fmt.Errorf("%w: directory truncated", ErrCorrupt)
	}
	h.Bounds = make([]model.Key, nLeaves-1)
	for i := range h.Bounds {
		h.Bounds[i] = model.Key(binary.BigEndian.Uint64(idx[pos:]))
		pos += 8
	}
	h.Dir = make([]LeafInfo, nLeaves)
	expectOff := int64(hlen)
	for i := range h.Dir {
		d := &h.Dir[i]
		d.Offset = int64(binary.BigEndian.Uint64(idx[pos:]))
		d.Length = int64(binary.BigEndian.Uint64(idx[pos+8:]))
		d.Count = int(binary.BigEndian.Uint32(idx[pos+16:]))
		d.MinT = model.Timestamp(binary.BigEndian.Uint64(idx[pos+20:]))
		d.MaxT = model.Timestamp(binary.BigEndian.Uint64(idx[pos+28:]))
		d.CRC = binary.BigEndian.Uint32(idx[pos+36:])
		pos += dirEntryLen
		// Leaf extents must tile the body contiguously in order; anything
		// else is corruption that must not reach the read path.
		if d.Length < 0 || d.Offset != expectOff {
			return nil, fmt.Errorf("%w: leaf %d extent [%d,+%d) breaks body tiling at %d",
				ErrCorrupt, i, d.Offset, d.Length, expectOff)
		}
		expectOff += d.Length
	}
	h.Size = expectOff
	h.LeafKeys = make([]model.KeyRange, nLeaves)
	for i := range h.LeafKeys {
		h.LeafKeys[i].Lo = model.Key(binary.BigEndian.Uint64(idx[pos:]))
		h.LeafKeys[i].Hi = model.Key(binary.BigEndian.Uint64(idx[pos+8:]))
		pos += 16
		if h.Dir[i].Count > 0 && h.LeafKeys[i].Lo > h.LeafKeys[i].Hi {
			return nil, fmt.Errorf("%w: leaf %d key bounds inverted", ErrCorrupt, i)
		}
	}
	h.Sketches = make([]*bloom.TimeSketch, nLeaves)
	if flags&flagBloom != 0 {
		for i := 0; i < nLeaves; i++ {
			if pos+4 > len(idx) {
				return nil, fmt.Errorf("%w: sketch block truncated", ErrCorrupt)
			}
			slen := int(binary.BigEndian.Uint32(idx[pos:]))
			pos += 4
			if slen == 0 {
				continue
			}
			if slen > len(idx)-pos {
				return nil, fmt.Errorf("%w: sketch truncated", ErrCorrupt)
			}
			sk, _, err := bloom.DecodeTimeSketch(idx[pos : pos+slen])
			if err != nil {
				return nil, fmt.Errorf("%w: sketch %d: %v", ErrCorrupt, i, err)
			}
			h.Sketches[i] = sk
			pos += slen
		}
	}
	if pos != ilen {
		return nil, fmt.Errorf("%w: index sections end at %d, the index prefix at %d", ErrCorrupt, pos, ilen)
	}
	if len(buf) == hlen {
		if err := h.loadAggs(buf[ilen:]); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// WithAggs returns a copy of the index-only header h with the
// pre-aggregate block parsed from block, the chunk's bytes [IndexLen,
// HeaderLen), once its CRC matches. h is not modified: a cached index
// header stays shared while aggregate readers hold the copy.
func (h *Header) WithAggs(block []byte) (*Header, error) {
	if h.HasAgg {
		return nil, fmt.Errorf("%w: header has its pre-aggregate block loaded", ErrCorrupt)
	}
	full := *h
	if err := full.loadAggs(block); err != nil {
		return nil, err
	}
	return &full, nil
}

// loadAggs checks and parses the pre-aggregate block into h.
func (h *Header) loadAggs(block []byte) error {
	if len(block) != h.HeaderLen-h.IndexLen {
		return fmt.Errorf("%w: pre-aggregate block is %d bytes, want %d", ErrCorrupt, len(block), h.HeaderLen-h.IndexLen)
	}
	if crc32.Checksum(block, castagnoli) != h.aggSum {
		return fmt.Errorf("%w: pre-aggregate block CRC mismatch", ErrCorrupt)
	}
	return parseAggBlock(h, block)
}

// CheckLeaf reports whether body, the extent Dir[li] locates, is leaf li's
// body as Build wrote it: whether its CRC32C is the one the directory
// records. A query server runs it once, when the body enters its cache; a
// cache hit is not summed again.
func (h *Header) CheckLeaf(li int, body []byte) error {
	if crc32.Checksum(body, castagnoli) != h.Dir[li].CRC {
		return fmt.Errorf("%w: leaf %d body CRC mismatch", ErrCorrupt, li)
	}
	return nil
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
