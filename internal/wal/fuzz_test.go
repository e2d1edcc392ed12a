package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// walkAll drives a frameWalker over body the way loadSegment does, reading
// every payload, and returns the frames, where the last intact one ends and
// the walker's verdict.
func walkAll(body []byte) (recs []Record, end int64, err error) {
	w := newFrameWalker(bytes.NewReader(body), -1)
	for {
		off, ok, err := w.next()
		if err != nil || !ok {
			return recs, w.end, err
		}
		data, ok, err := w.take(true)
		if err != nil || !ok {
			return recs, w.end, err
		}
		recs = append(recs, Record{Offset: off, Data: data})
	}
}

// appendFrame appends the frame of the record data at offset off to dst,
// summed the way the spec says rather than the way an append does it.
func appendFrame(dst []byte, off int64, data []byte) []byte {
	var hdr [recordHeaderLen]byte // the CRC field zero while summed
	binary.BigEndian.PutUint64(hdr[0:8], uint64(off))
	binary.BigEndian.PutUint32(hdr[8:12], uint32(len(data)))
	tab := crc32.MakeTable(crc32.Castagnoli)
	binary.BigEndian.PutUint32(hdr[12:16], crc32.Update(crc32.Checksum(hdr[:], tab), tab, data))
	return append(append(dst, hdr[:]...), data...)
}

// FuzzSegmentWalk feeds arbitrary bytes to the frame walker every segment
// reader shares. Whatever the input — a torn header, a torn payload, an
// oversize length, an offset gap, a flipped bit — the walk must end in a
// clean cut or ErrCorruptSegment, never a panic; the frames it yields must
// be a gapless run that re-frames to exactly the bytes consumed; passing
// over payloads must agree with loading them; and opening the same bytes as
// a segment file must reach the same verdict and cut the file at the same
// place.
func FuzzSegmentWalk(f *testing.F) {
	// A real segment, written by a partition.
	path := filepath.Join(f.TempDir(), "seed.wal")
	p, err := OpenPartition(path, Config{})
	if err != nil {
		f.Fatal(err)
	}
	p.AppendBatch([][]byte{[]byte("alpha"), {}, []byte("gamma-gamma")})
	p.Append(bytes.Repeat([]byte{0xAB}, 300))
	p.CloseFile()
	seg, err := os.ReadFile(lastSegment(f, path))
	if err != nil {
		f.Fatal(err)
	}
	body := seg[walMagicLen:]
	f.Add(body)
	f.Add(body[:len(body)-1])              // torn payload
	f.Add(body[:recordHeaderLen+5+7])      // torn header of the second frame
	f.Add([]byte{})                        // empty body
	f.Add(append(bytes.Clone(body), 1, 2)) // trailing garbage shorter than a header
	// An intact second frame that claims offset 7.
	f.Add(appendFrame(appendFrame(nil, 0, []byte("alpha")), 7, []byte("beta")))
	huge := bytes.Clone(body) // first frame claims MaxRecordBytes+1
	binary.BigEndian.PutUint32(huge[8:], MaxRecordBytes+1)
	f.Add(huge)
	// Single flipped bits: in the first frame's offset, length, CRC and
	// payload (frames follow: corrupt), and in the last frame's payload (a
	// torn tail: cut).
	last := len(body) - 1
	for _, bit := range []int{7*8 + 1, 11 * 8, 12*8 + 3, (recordHeaderLen+2)*8 + 5, last*8 + 6} {
		flipped := bytes.Clone(body)
		flipped[bit/8] ^= 1 << (bit % 8)
		f.Add(flipped)
	}
	// Bodies cut at a segment boundary: a log that rolled twice gives a
	// segment that ends exactly where the next begins, one that starts above
	// offset zero, the two as one run, and a run with the middle one missing.
	rolled := filepath.Join(f.TempDir(), "rolled.wal")
	p = openSmall(f, rolled, Config{}, 80)
	for i := 0; i < 12; i++ {
		p.Append([]byte{byte(i), byte(i)}) // 18 bytes a record: 5 to a segment
	}
	p.CloseFile()
	var segs [][]byte
	for _, base := range segBases(f, rolled)[:3] {
		seg, err := os.ReadFile(segFile(rolled, base))
		if err != nil {
			f.Fatal(err)
		}
		segs = append(segs, seg[walMagicLen:])
	}
	f.Add(segs[0])
	f.Add(segs[1])
	f.Add(slices.Concat(segs[0], segs[1]))
	f.Add(slices.Concat(segs[0], segs[2]))

	f.Fuzz(func(t *testing.T, body []byte) {
		recs, end, err := walkAll(body)
		if err != nil && !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("untyped walk error: %v", err)
		}
		if end < 0 || end > int64(len(body)) {
			t.Fatalf("walk consumed %d of %d bytes", end, len(body))
		}
		var reframed []byte
		for i, r := range recs {
			if r.Offset != recs[0].Offset+int64(i) {
				t.Fatalf("frame %d carries offset %d after %d", i, r.Offset, recs[0].Offset)
			}
			reframed = appendFrame(reframed, r.Offset, r.Data)
		}
		if !bytes.Equal(reframed, body[:end]) {
			t.Fatalf("frames re-encode to %d bytes that differ from the %d consumed", len(reframed), end)
		}

		// Passing over payloads must agree with loading them.
		w := newFrameWalker(bytes.NewReader(body), -1)
		n := 0
		for {
			_, ok, serr := w.next()
			if serr == nil && ok {
				_, ok, serr = w.take(false)
			}
			if serr != nil || !ok {
				if (serr == nil) != (err == nil) {
					t.Fatalf("skip verdict %v, read verdict %v", serr, err)
				}
				break
			}
			n++
		}
		if n != len(recs) || w.end != end {
			t.Fatalf("skipping saw %d frames ending at %d, reading %d ending at %d", n, w.end, len(recs), end)
		}

		// The same bytes as a segment file, named — as every segment is — by
		// the offset its first frame carries.
		var base int64
		if len(body) >= 8 {
			if off := int64(binary.BigEndian.Uint64(body)); off >= 0 {
				base = off
			}
		}
		dir := filepath.Join(t.TempDir(), "p.wal")
		path := segFile(dir, base)
		os.Mkdir(dir, 0o755)
		if werr := os.WriteFile(path, append(walMagic[:], body...), 0o644); werr != nil {
			t.Fatal(werr)
		}
		p, oerr := OpenPartition(dir, Config{})
		if err != nil {
			if !errors.Is(oerr, ErrCorruptSegment) {
				t.Fatalf("open accepted a segment the walker rejects (%v): %v", err, oerr)
			}
			return
		}
		if oerr != nil {
			t.Fatalf("open rejected a segment the walker accepts: %v", oerr)
		}
		defer p.CloseFile()
		if p.Len() != len(recs) || p.Next()-p.Base() != int64(len(recs)) || p.Base() != base {
			t.Fatalf("open loaded %d records over [%d, %d), walker saw %d", p.Len(), p.Base(), p.Next(), len(recs))
		}
		if st, _ := os.Stat(path); st.Size() != walMagicLen+end {
			t.Fatalf("open left the file at %d bytes, the last intact frame ends at %d", st.Size(), walMagicLen+end)
		}
		if len(recs) > 0 {
			got, rerr := p.Read(p.Base(), len(recs))
			if rerr != nil || len(got) == 0 || got[0].Offset != recs[0].Offset || !bytes.Equal(got[0].Data, recs[0].Data) {
				t.Fatalf("read of the first frame: %v, %v", got, rerr)
			}
		}
	})
}
