package chunk

import (
	"encoding/binary"
	"errors"
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

// FuzzChunkOpen throws arbitrary bytes at the whole chunk read path —
// header parse, the split into index prefix and pre-aggregate block, leaf
// selection, columnar decode, scans and pre-aggregate folds. The
// invariant: malformed input is rejected with a typed error, never a
// panic, an over-read past the input, or an unbounded allocation; and a
// header that parses reads the same from its two units. The seed corpus
// covers every section combination Build writes and the committed golden
// fixture with an older build's secondary section, plus truncations (at
// and either side of the index prefix, and inside that secondary section,
// among them), an overlong secondary filter length, and past- and
// future-version magics.
func FuzzChunkOpen(f *testing.F) {
	snap := buildSnapshot(f, 300, 8)
	add := func(opts BuildOptions) []byte {
		data, _, err := Build(snap, opts)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		return data
	}
	v2 := add(BuildOptions{})
	_, v2Meta, err := Build(snap, BuildOptions{})
	if err != nil {
		f.Fatal(err)
	}
	for _, cut := range []int{v2Meta.IndexLen - 1, v2Meta.IndexLen, v2Meta.IndexLen + 1} {
		f.Add(v2[:cut])
	}
	add(BuildOptions{DisableBloom: true})
	add(BuildOptions{DisableAgg: true})
	golden, err := os.ReadFile(goldenOld.path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	// The fixture's secondary section, written by an older build and
	// skipped on parse: cut inside it, and with a filter length that runs
	// past the header.
	secStart, secEnd := goldenBuild.indexLen, goldenOld.indexLen
	for _, cut := range []int{secStart + 2, secStart + 6, secEnd - 1} {
		f.Add(golden[:cut])
	}
	overlong := append([]byte(nil), golden...)
	binary.BigEndian.PutUint32(overlong[secStart+4:], uint32(goldenOld.headerLen))
	f.Add(overlong)
	// Truncations at section-ish boundaries, and the golden bytes behind
	// the v1 magic of early builds and a v3 magic.
	f.Add(v2[:len(v2)/2])
	f.Add(v2[:57])
	f.Add(v2[:12])
	for _, version := range []byte{'1', '3'} {
		other := append([]byte(nil), golden...)
		other[7] = version
		f.Add(other)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Truncated seeds share their backing array with the whole chunk:
		// clip the capacity, so that a read past the input panics instead of
		// finding the bytes that were cut off.
		data = data[:len(data):len(data)]
		h, err := ParseHeader(data)
		if err != nil {
			if !decodeErrOK(err) {
				t.Fatalf("ParseHeader error class: %v", err)
			}
			return
		}
		// Read as two units, the header is the same header.
		if !h.AggUnloaded {
			idx, err := ParseHeader(data[:h.IndexLen:h.IndexLen])
			if err != nil {
				t.Fatalf("index prefix of a header that parses: %v", err)
			}
			split := idx
			if idx.AggUnloaded {
				if split, err = idx.WithAggs(data[h.IndexLen:h.HeaderLen]); err != nil {
					t.Fatalf("pre-aggregate block of a header that parses: %v", err)
				}
			}
			if !reflect.DeepEqual(split, h) {
				t.Fatal("index prefix + pre-aggregate block parse differently from the whole header")
			}
		} else if n := h.HeaderLen - h.IndexLen; n <= len(data) {
			// An index-only header: its block parse takes arbitrary bytes
			// too, and what it accepts goes down the fold paths below.
			full, err := h.WithAggs(data[len(data)-n:])
			if err != nil && !decodeErrOK(err) {
				t.Fatalf("WithAggs error class: %v", err)
			}
			if err == nil {
				h = full
			}
		}
		// The header parsed: every downstream read must stay inside data
		// and fail typed on inconsistencies the header could not catch.
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
	})
}
