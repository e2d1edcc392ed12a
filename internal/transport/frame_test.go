package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

func encodeFrame(t testing.TB, f *frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sameFrame(a, b *frame) bool {
	return a.ID == b.ID && bytes.Equal(a.Method, b.Method) && a.Status == b.Status &&
		a.Err == b.Err && bytes.Equal(a.Payload, b.Payload)
}

func TestFrameRoundTrip(t *testing.T) {
	big := bytes.Repeat([]byte{0xAB}, 3*readChunk+17) // grown in several steps
	for _, f := range []*frame{
		{},
		{ID: 1, Method: []byte("query"), Payload: []byte("payload")},
		{ID: ^uint64(0), Status: StatusApp, Err: "it broke", Payload: []byte{1, 2, 3}},
		{ID: 7, Method: []byte("insert"), Payload: big},
	} {
		got, err := readFrame(bytes.NewReader(encodeFrame(t, f)))
		if err != nil {
			t.Fatalf("frame %d: %v", f.ID, err)
		}
		if !sameFrame(got, f) {
			t.Errorf("frame %d did not round-trip", f.ID)
		}
	}
}

// TestReadFrameRejectsMalformed: every way a frame can be cut short or
// mislabelled is an error, and the parse errors are ErrBadFrame.
func TestReadFrameRejectsMalformed(t *testing.T) {
	good := encodeFrame(t, &frame{ID: 9, Method: []byte("query"), Err: "e", Payload: []byte("pp")})
	with := func(edit func(b []byte) []byte) []byte { return edit(bytes.Clone(good)) }
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, io.EOF},
		{"truncated length", good[:3], io.ErrUnexpectedEOF},
		{"no body", good[:4], io.ErrUnexpectedEOF},
		{"short body", good[:len(good)-1], io.ErrUnexpectedEOF},
		{"length below minimum", with(func(b []byte) []byte {
			binary.BigEndian.PutUint32(b, minBody-1)
			return b
		}), ErrBadFrame},
		{"oversize length", with(func(b []byte) []byte {
			binary.BigEndian.PutUint32(b, MaxFrameBytes+1)
			return b
		}), ErrBadFrame},
		{"wrong magic", with(func(b []byte) []byte { b[4] ^= 0xFF; return b }), ErrBadFrame},
		{"wrong version", with(func(b []byte) []byte { b[7]++; return b }), ErrBadFrame},
		{"method overruns", with(func(b []byte) []byte {
			binary.BigEndian.PutUint16(b[16:], 0xFFFF)
			return b
		}), ErrBadFrame},
		{"error text overruns", with(func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[18+len("query")+1:], 1<<31)
			return b
		}), ErrBadFrame},
	}
	for _, tc := range cases {
		if _, err := readFrame(bytes.NewReader(tc.in)); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// allocatedBy reports the bytes fn allocates. The counter is the process's,
// so a reading over limit is taken again: other goroutines only ever add.
func allocatedBy(limit uint64, fn func()) uint64 {
	var a, b runtime.MemStats
	for try := 0; ; try++ {
		runtime.ReadMemStats(&a)
		fn()
		runtime.ReadMemStats(&b)
		if got := b.TotalAlloc - a.TotalAlloc; got <= limit || try == 2 {
			return got
		}
	}
}

// TestReadFrameHostileLength: a length prefix promising the maximum, with
// nothing behind it, commits one read chunk — not the 64 MiB it names.
func TestReadFrameHostileLength(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameBytes)
	got := allocatedBy(2*readChunk, func() {
		if _, err := readFrame(bytes.NewReader(hdr[:])); err == nil {
			t.Error("bare length accepted")
		}
	})
	if got > 2*readChunk {
		t.Errorf("a 4-byte input allocated %d bytes", got)
	}
}

func FuzzReadFrame(f *testing.F) {
	f.Add(encodeFrame(f, &frame{}))
	f.Add(encodeFrame(f, &frame{ID: 3, Method: []byte("insert"), Payload: bytes.Repeat([]byte{1}, 100)}))
	f.Add(encodeFrame(f, &frame{ID: 4, Status: StatusFailed, Err: "kapow", Payload: []byte{9}}))
	f.Add([]byte{0x04, 0, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		var fr *frame
		var err error
		// The body is at most doubled while it grows; the rest is the frame
		// struct, the error text and the error itself.
		limit := uint64(readChunk + 4*len(in) + 4096)
		if alloc := allocatedBy(limit, func() { fr, err = readFrame(bytes.NewReader(in)) }); alloc > limit {
			t.Fatalf("%d input bytes allocated %d", len(in), alloc)
		}
		if err != nil {
			return
		}
		n := 4 + int(binary.BigEndian.Uint32(in))
		if out := encodeFrame(t, fr); !bytes.Equal(out, in[:n]) {
			t.Fatalf("re-encoding differs:\n in  %x\n out %x", in[:n], out)
		}
	})
}
