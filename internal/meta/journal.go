// The registry's journal (DESIGN §19): every edit to what a restart resumes
// from is one record on a wal.Partition, appended under the server's lock
// before the edit is applied, so the journal's order is the registry's and an
// edit the journal refuses changes nothing. The partition group-commits with
// fsync. A record is JSON behind a magic carrying the format's version: an
// edit, or an image — the registry entire. Once the records since the last
// image outnumber the chunks, the next edit appends a fresh image in a
// segment of its own, and the journal is cut below it once it is durable.

package meta

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"waterwheel/internal/durable"
	"waterwheel/internal/model"
	"waterwheel/internal/telemetry"
	"waterwheel/internal/wal"
)

// magic opens every record; its last two bytes are the format version.
var magic = []byte("WWMETA01")

// ErrVersion is returned for a record this build does not read: another
// version of the format, or no journal record at all (the gob image of an
// older layout).
var ErrVersion = errors.New("meta: not a version-01 registry record")

// ErrCorrupt is returned for a journal record that does not parse.
var ErrCorrupt = errors.New("meta: corrupt journal record")

// ErrImageTooLarge is returned when the registry's image would not fit one
// journal record (wal.MaxRecordBytes, some 5·10⁴ chunks).
var ErrImageTooLarge = errors.New("meta: registry image exceeds a journal record")

// state is everything but the chunks that a restart resumes from.
type state struct {
	Schema    PartitionSchema
	Offsets   []int64
	Epochs    []int64
	NextChunk uint64
}

// record is one journal record: an edit — the whole state when it changed
// (nil otherwise), then the chunks dropped, then the chunks put under their
// IDs — or, with Image set, the registry entire.
type record struct {
	Image bool            `json:",omitempty"`
	State *state          `json:",omitempty"`
	Drops []model.ChunkID `json:",omitempty"`
	Puts  []ChunkInfo     `json:",omitempty"`
}

// JournalConfig is how Open reaches the disk (nil Files: the plain OS) and
// what it counts and times its images in. Every record is fsynced: that is
// not configurable.
type JournalConfig struct {
	Files        *durable.Files
	Compactions  *telemetry.Counter
	CompactNanos *telemetry.Histogram
}

// Open opens the registry journaled in the partition directory path,
// replaying it; an empty journal opens a registry of indexServers slots, as
// NewServer does. Close releases it.
func Open(path string, indexServers int, cfg JournalConfig) (*Server, error) {
	j, err := wal.OpenPartition(path, wal.Config{Durability: wal.DurabilityAckOnFsync, Files: cfg.Files})
	if err != nil {
		return nil, fmt.Errorf("meta: open journal: %w", err)
	}
	s := NewServer(indexServers)
	s.j, s.jcfg = j, cfg
	for off := j.Base(); off < j.Next() && err == nil; {
		var recs []wal.Record
		recs, err = j.Read(off, 1024)
		for _, rec := range recs {
			var r *record
			if r, err = decode(rec.Data); err != nil {
				break
			}
			s.applyLocked(r)
			if s.sinceImage.Add(1); r.Image {
				s.sinceImage.Store(0)
				s.image.Store(rec.Offset)
			}
			off++
		}
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("meta: replay journal at %d: %w", off, err)
		}
	}
	return s, nil
}

// Close stops the journal: what was appended is fsynced, and every later
// edit is refused. A registry without a journal has nothing to close.
func (s *Server) Close() {
	if s.j != nil {
		s.j.Close()
		s.j.CloseFile()
	}
}

// Sync returns once every edit made so far is durable, and cuts the journal
// below the newest durable image; first, when the records since the last
// image outnumber the chunks, it appends a fresh one. It is how a caller
// that acts on an edit outside the registry — a flush commit letting go of
// the log — waits for it; the other edits wait by themselves. No-op
// without a journal.
func (s *Server) Sync() error {
	if s.j == nil {
		return nil
	}
	if s.sinceImage.Load() > int64(s.ChunkCount()) {
		s.compact()
	}
	if err := s.j.AwaitDurable(s.j.Next()); err != nil {
		return fmt.Errorf("meta: journal: %w", err)
	}
	if img := s.image.Load(); img > s.j.Base() && s.j.SyncedNext() > img {
		s.j.Truncate(img)
	}
	return nil
}

// Compact appends the registry's image, unless nothing was journaled since
// the last one, and cuts the journal below it once it is durable. No-op
// without a journal.
func (s *Server) Compact() error {
	if s.j == nil {
		return nil
	}
	var err error
	if s.sinceImage.Load() > 0 {
		err = s.compact()
	}
	return errors.Join(err, s.Sync())
}

// commitLocked appends r to the journal, then applies it; a record the
// journal refuses is not applied. Requires mu.
func (s *Server) commitLocked(r *record) error {
	if s.j != nil {
		if err := s.appendLocked(r.encode(), false); err != nil {
			return err
		}
		s.sinceImage.Add(1)
	}
	s.applyLocked(r)
	return nil
}

// compact appends the registry's image in a segment of its own and marks it
// as where the journal may be cut. It holds the read lock: edits wait, so
// the image is the registry at its place in the journal, and queries do
// not. An image too large to append leaves the journal growing; the rule
// asks again after as many records as the registry holds chunks.
func (s *Server) compact() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	start := time.Now()
	s.sinceImage.Store(0)
	if err := s.appendLocked(s.imageLocked(), true); err != nil {
		return err
	}
	s.image.Store(s.j.Next() - 1)
	s.jcfg.Compactions.Inc()
	s.jcfg.CompactNanos.Observe(time.Since(start))
	return nil
}

// appendLocked appends one record to the journal. Requires mu, for reading
// at least.
func (s *Server) appendLocked(rec []byte, fresh bool) error {
	if len(rec) > wal.MaxRecordBytes {
		return fmt.Errorf("%w: %d bytes, the limit is %d", ErrImageTooLarge, len(rec), wal.MaxRecordBytes)
	}
	var err error
	if fresh {
		_, err = s.j.StartSegment(rec)
	} else {
		_, err = s.j.StartAppend([][]byte{rec})
	}
	if err != nil {
		return fmt.Errorf("meta: journal: %w", err)
	}
	return nil
}

// stateLocked returns a copy of the state. Requires mu.
func (s *Server) stateLocked() state {
	return state{
		Schema:    clonedSchema(s.schema),
		Offsets:   append([]int64(nil), s.offsets...),
		Epochs:    append([]int64(nil), s.epochs...),
		NextChunk: s.nextChunk,
	}
}

// applyLocked applies a record: an image empties the registry first; then
// the state, the drops, the puts. A put of a registered ID replaces that
// chunk. Requires mu.
func (s *Server) applyLocked(r *record) {
	if r.Image {
		s.chunks = make(map[model.ChunkID]ChunkInfo, len(r.Puts))
		s.regions = newRegions()
		s.maxTime, s.nextChunk = 0, 0
	}
	if st := r.State; st != nil {
		s.schema, s.offsets, s.epochs = st.Schema, st.Offsets, st.Epochs
		s.nextChunk = max(s.nextChunk, st.NextChunk)
	}
	for _, id := range r.Drops {
		if info, ok := s.chunks[id]; ok {
			s.unindexLocked(info)
		}
	}
	for _, info := range r.Puts {
		if old, ok := s.chunks[info.ID]; ok {
			s.unindexLocked(old)
		}
	}
	s.indexLocked(r.Puts)
}

// imageLocked encodes the registry as one image record. Requires mu.
func (s *Server) imageLocked() []byte {
	st := s.stateLocked()
	img := &record{Image: true, State: &st, Puts: make([]ChunkInfo, 0, len(s.chunks))}
	for _, c := range s.chunks {
		img.Puts = append(img.Puts, c)
	}
	return img.encode()
}

// encode returns the record's bytes. A record holds only numbers, strings
// and slices of them: marshalling cannot fail.
func (r *record) encode() []byte {
	body, err := json.Marshal(r)
	if err != nil {
		panic(fmt.Sprintf("meta: encode journal record: %v", err))
	}
	return append(append([]byte(nil), magic...), body...)
}

// decode parses a record, rejecting a state the registry cannot index by: a
// slot per offset and per epoch, active slots among them, a bound between
// each two.
func decode(data []byte) (*record, error) {
	r := &record{}
	if !bytes.HasPrefix(data, magic) {
		return nil, ErrVersion
	}
	if err := json.Unmarshal(data[len(magic):], r); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	st := r.State
	switch {
	case st == nil && r.Image:
		return nil, fmt.Errorf("%w: an image without a state", ErrCorrupt)
	case st == nil:
		return r, nil
	case st.Schema.Servers < 1 || len(st.Offsets) != st.Schema.Servers || len(st.Epochs) != st.Schema.Servers:
		return nil, fmt.Errorf("%w: %d slots with %d offsets and %d epochs", ErrCorrupt, st.Schema.Servers, len(st.Offsets), len(st.Epochs))
	case st.Schema.ActiveCount() < 1 || len(st.Schema.Bounds) != st.Schema.ActiveCount()-1:
		return nil, fmt.Errorf("%w: %d active slots with %d bounds", ErrCorrupt, st.Schema.ActiveCount(), len(st.Schema.Bounds))
	}
	for _, id := range st.Schema.Slots {
		if id < 0 || id >= st.Schema.Servers {
			return nil, fmt.Errorf("%w: active slot %d of %d", ErrCorrupt, id, st.Schema.Servers)
		}
	}
	return r, nil
}
