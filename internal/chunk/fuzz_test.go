package chunk

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"reflect"
	"testing"

	"waterwheel/internal/model"
)

// decodeErrOK reports whether an error from a decode path is an accepted
// rejection class. Corrupt or truncated input must surface as ErrCorrupt
// and a magic of another version as ErrUnsupportedVersion — anything else
// means a decode path leaked an internal failure mode.
func decodeErrOK(err error) bool {
	return errors.Is(err, ErrCorrupt) || errors.Is(err, ErrUnsupportedVersion)
}

// restamp returns a copy of data with every sum the layout specifies
// recomputed over the bytes it covers, as far as data holds them: each
// leaf body's CRC, the pre-aggregate block's and last the index prefix's,
// which covers the other two. A mutated input then gets past the sums to
// the parsers behind them.
func restamp(data []byte) []byte {
	out := append([]byte(nil), data...)
	out = out[:len(out):len(out)]
	if len(out) < fixedLen {
		return out
	}
	hlen := int(binary.BigEndian.Uint32(out[8:12]))
	ilen := int(binary.BigEndian.Uint32(out[12:16]))
	if ilen < fixedLen || ilen > hlen || ilen > len(out) {
		return out
	}
	nLeaves := int(binary.BigEndian.Uint32(out[64:68]))
	dirAt := fixedLen + (nLeaves-1)*8
	for i := 0; i < nLeaves && dirAt+(i+1)*dirEntryLen <= ilen; i++ {
		e := out[dirAt+i*dirEntryLen:]
		off, n := binary.BigEndian.Uint64(e), binary.BigEndian.Uint64(e[8:])
		if off <= uint64(len(out)) && n <= uint64(len(out))-off {
			binary.BigEndian.PutUint32(e[36:], crc32.Checksum(out[off:off+n], castagnoli))
		}
	}
	if hlen <= len(out) {
		binary.BigEndian.PutUint32(out[aggSumAt:], crc32.Checksum(out[ilen:hlen], castagnoli))
	}
	binary.BigEndian.PutUint32(out[indexSumAt:], indexSum(out[:ilen]))
	return out
}

// FuzzChunkOpen throws arbitrary bytes at the whole chunk read path —
// header parse, the split into index prefix and pre-aggregate block, the
// leaf sums, leaf selection, columnar decode, scans and pre-aggregate
// folds — twice: as given, which a sum mismatch mostly stops early, and
// restamped, so that the mutated bytes reach the parsers behind the sums.
// The invariant: malformed input is rejected with a typed error, never a
// panic, an over-read past the input, or an unbounded allocation; and a
// header that parses reads the same from its two units. The seed corpus
// covers every section combination Build writes and the committed golden
// fixture, single-bit flips of it in each summed unit (not restamped in
// the corpus), truncations (at and either side of the index prefix among
// them), the WWCHUNK2 fixture, and past- and future-version magics.
func FuzzChunkOpen(f *testing.F) {
	snap := buildSnapshot(f, 300, 8)
	built, meta, err := Build(snap, BuildOptions{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(built)
	for _, cut := range []int{meta.IndexLen - 1, meta.IndexLen, meta.IndexLen + 1} {
		f.Add(built[:cut])
	}
	noBloom, _, err := Build(snap, BuildOptions{DisableBloom: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(noBloom)
	fixture, err := os.ReadFile(golden.path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	// One flipped bit in each unit a reader sums: the fixed header, the
	// directory, the sketches, the pre-aggregate block, a leaf body.
	for _, at := range []int{10, fixedLen + 3*8 + 5, golden.indexLen - 2, golden.indexLen + 7, golden.headerLen + 20, len(fixture) - 1} {
		flipped := append([]byte(nil), fixture...)
		flipped[at] ^= 0x10
		f.Add(flipped)
	}
	v2, err := os.ReadFile(goldenV2.path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2)
	// Truncations at section-ish boundaries, and the golden bytes behind
	// the v2 magic and a v4 one.
	f.Add(built[:len(built)/2])
	f.Add(built[:fixedLen])
	f.Add(built[:12])
	for _, version := range []byte{'2', '4'} {
		other := append([]byte(nil), fixture...)
		other[7] = version
		f.Add(other)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Truncated seeds share their backing array with the whole chunk:
		// clip the capacity, so that a read past the input panics instead of
		// finding the bytes that were cut off.
		readFuzzed(t, data[:len(data):len(data)])
		readFuzzed(t, restamp(data))
	})
}

// readFuzzed drives one input down the chunk read path for FuzzChunkOpen.
func readFuzzed(t *testing.T, data []byte) {
	h, err := ParseHeader(data)
	if err != nil {
		if !decodeErrOK(err) {
			t.Fatalf("ParseHeader error class: %v", err)
		}
		return
	}
	// Read as two units, the header is the same header.
	if h.HasAgg {
		idx, err := ParseHeader(data[:h.IndexLen:h.IndexLen])
		if err != nil {
			t.Fatalf("index prefix of a header that parses: %v", err)
		}
		split, err := idx.WithAggs(data[h.IndexLen:h.HeaderLen:h.HeaderLen])
		if err != nil {
			t.Fatalf("pre-aggregate block of a header that parses: %v", err)
		}
		if !reflect.DeepEqual(split, h) {
			t.Fatal("index prefix + pre-aggregate block parse differently from the whole header")
		}
	} else if n := h.HeaderLen - h.IndexLen; n <= len(data) {
		// An index-only header: its block parse takes arbitrary bytes too,
		// and what it accepts goes down the fold paths below.
		full, err := h.WithAggs(data[len(data)-n:])
		if err != nil && !decodeErrOK(err) {
			t.Fatalf("WithAggs error class: %v", err)
		}
		if err == nil {
			h = full
		}
	}
	// The header parsed: every downstream read must stay inside data and
	// fail typed on inconsistencies the header could not catch.
	read, _ := h.SelectLeaves(model.FullKeyRange(), model.FullTimeRange(), true)
	full := model.FullTimeRange()
	var agg model.AggPartial
	var cols LeafColumns
	for _, li := range read {
		d := h.Dir[li]
		if d.Offset < 0 || d.Length < 0 || d.Offset+d.Length > int64(len(data)) {
			// The DFS read of this extent would fail before decoding; the
			// in-memory path's job ends at not trusting these bounds.
			continue
		}
		body := data[d.Offset : d.Offset+d.Length]
		if err := h.CheckLeaf(li, body); err != nil {
			if !decodeErrOK(err) {
				t.Fatalf("CheckLeaf(%d) error class: %v", li, err)
			}
			continue // a query server never decodes a body that fails its sum
		}
		if err := h.DecodeColumns(li, body, &cols); err != nil && !decodeErrOK(err) {
			t.Fatalf("DecodeColumns(%d) error class: %v", li, err)
		}
		err := h.ScanLeafColsWith(&cols, li, body, model.FullKeyRange(), full, nil,
			func(model.Key, model.Timestamp, []byte) bool { return true })
		if err != nil && !decodeErrOK(err) {
			t.Fatalf("ScanLeafColsWith(%d) error class: %v", li, err)
		}
		h.FoldLeafAggAll(li, false, &agg)
		if d.Count > 0 {
			mid := model.TimeRange{Lo: d.MinT, Hi: d.MaxT}
			h.FoldLeafAgg(li, mid, false, &agg)
		}
		err = h.AggregateLeaf(li, body, &cols, model.FullKeyRange(), full, nil, nil, 0, false, &agg)
		if err != nil && !decodeErrOK(err) {
			t.Fatalf("AggregateLeaf(%d) error class: %v", li, err)
		}
	}
}
