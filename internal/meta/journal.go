// The registry's journal (DESIGN §19): every edit to what a restart resumes
// from is one record on a wal.Partition, appended under the server's lock
// before the edit is applied, so the journal's order is the registry's and an
// edit the journal refuses changes nothing. The partition group-commits with
// fsync. A record is JSON behind a magic carrying the format's version, and
// every record is absolute: a state replaces the state, a put replaces its
// chunk and a drop removes it. So the journal is compacted by re-registering
// the registry as ordinary records, one short part at a time, and cut below
// the first part once the last is durable; replay applies records in order.

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

// ErrCorrupt is returned for a journal record that does not parse, and for a
// journal whose segments the log reads as corrupt (wal.ErrCorruptSegment).
var ErrCorrupt = errors.New("meta: corrupt journal record")

// state is everything but the chunks that a restart resumes from.
type state struct {
	Schema    PartitionSchema
	Offsets   []int64
	Epochs    []int64
	NextChunk uint64
}

// record is one journal record: the whole state when it changed (nil
// otherwise), then the chunks dropped, then the chunks put under their IDs.
// Image marks the registry entire, as Snapshot takes it; replay reads it
// like any other record.
type record struct {
	Image bool            `json:",omitempty"`
	State *state          `json:",omitempty"`
	Drops []model.ChunkID `json:",omitempty"`
	Puts  []ChunkInfo     `json:",omitempty"`
}

// JournalConfig is how Open reaches the disk (nil Files: the plain OS) and
// what it counts and times its compactions in. Every record is fsynced: that
// is not configurable.
type JournalConfig struct {
	Files        *durable.Files
	Compactions  *telemetry.Counter
	CompactNanos *telemetry.Histogram
}

// Open opens the registry journaled in the partition directory path,
// replaying its records in order; an empty journal opens a registry of
// indexServers slots, as NewServer does. Close releases it.
func Open(path string, indexServers int, cfg JournalConfig) (*Server, error) {
	j, err := wal.OpenPartition(path, wal.Config{Durability: wal.DurabilityAckOnFsync, Files: cfg.Files})
	if errors.Is(err, wal.ErrCorruptSegment) {
		err = fmt.Errorf("%w: %w", ErrCorrupt, err) // a frame that fails its CRC, too
	}
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
			off++
		}
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("meta: replay journal at %d: %w", off, err)
		}
	}
	s.sinceCut.Store(j.Next() - j.Base())
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

// Sync returns once every edit made so far is durable: how a caller that
// acts on an edit outside the registry — a flush commit letting go of the
// log — waits for it; the other edits wait by themselves. Then it compacts
// the journal if the rule asks; a compaction that fails is not the caller's
// error, and the next Sync tries again. No-op without a journal.
func (s *Server) Sync() error {
	if s.j == nil {
		return nil
	}
	return s.await(s.j.Next())
}

// await returns once the journal is durable below end, then compacts it
// once the edits since the last compaction outnumber the chunks.
func (s *Server) await(end int64) error {
	if err := s.j.AwaitDurable(end); err != nil {
		return fmt.Errorf("meta: journal: %w", err)
	}
	if s.sinceCut.Load() > int64(s.ChunkCount()) {
		s.compact()
	}
	return nil
}

// Compact is Sync, then a compaction unless nothing was journaled since
// the last one began; it returns the compaction's error.
func (s *Server) Compact() error {
	if err := s.Sync(); err != nil || s.j == nil || s.sinceCut.Load() == 0 {
		return err
	}
	return s.compact()
}

// commitLocked appends r to the journal, then applies it; a record the
// journal refuses is not applied. It returns the journal offset past r.
// Requires mu.
func (s *Server) commitLocked(r *record) (end int64, err error) {
	if s.j != nil {
		if end, err = s.j.StartAppend([][]byte{r.encode()}); err != nil {
			return 0, fmt.Errorf("meta: journal: %w", err)
		}
		s.sinceCut.Add(1)
	}
	s.applyLocked(r)
	return end, nil
}

// partChunks is how many chunks one part of a compaction puts: one part's
// encode holds the write lock for about a millisecond.
const partChunks = 256

// compact re-registers the registry (DESIGN §19): the first part, with the
// state, opens a segment of its own at the cut point S; each part puts the
// next partChunks of the IDs registered at S that still are, as they are
// now, under the write lock. Once the last part is durable the journal is
// cut below S. One compaction runs at a time; a second returns at once.
func (s *Server) compact() error {
	if !s.compacting.CompareAndSwap(false, true) {
		return nil
	}
	defer s.compacting.Store(false)
	start := time.Now()
	var ids []model.ChunkID
	part := func(r *record) []byte { // requires mu
		n := min(partChunks, len(ids))
		for _, id := range ids[:n] {
			if info, ok := s.chunks[id]; ok {
				r.Puts = append(r.Puts, info)
			}
		}
		ids = ids[n:]
		return r.encode()
	}
	s.mu.Lock()
	edits := s.sinceCut.Load()
	ids = make([]model.ChunkID, 0, len(s.chunks))
	for id := range s.chunks {
		ids = append(ids, id)
	}
	st := s.stateLocked()
	end, err := s.j.StartSegment(part(&record{State: &st}))
	s.mu.Unlock()
	cut := end - 1
	for err == nil && len(ids) > 0 {
		s.mu.Lock()
		end, err = s.j.StartAppend([][]byte{part(&record{})})
		s.mu.Unlock()
	}
	if err == nil {
		err = s.j.AwaitDurable(end)
	}
	if err != nil {
		return fmt.Errorf("meta: journal compaction: %w", err)
	}
	s.j.Truncate(cut)
	s.sinceCut.Add(-edits)
	s.jcfg.Compactions.Inc()
	s.jcfg.CompactNanos.Observe(time.Since(start))
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

// applyLocked applies a record: the state, the drops, the puts. A put of a
// registered ID replaces that chunk. Requires mu.
func (s *Server) applyLocked(r *record) {
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
