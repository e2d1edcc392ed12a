package meta

import (
	"errors"
	"fmt"

	"waterwheel/internal/model"
)

// ErrFenced is returned by the epoch-guarded registration APIs when the
// caller's ownership epoch is stale: ownership of the slot has been
// transferred since the caller last held it, and its writes must not
// reach the chunk registry or the replay offsets.
var ErrFenced = errors.New("meta: ownership epoch fenced")

// epochGenShift splits an ownership epoch in two: the high half counts the
// processes that opened the deployment (StartGeneration), the low half the
// ownership transfers within one. Transfers move the low half in memory, and
// reach a snapshot only at the next checkpoint; the high half is durable
// before its process writes anything. So an epoch — and a chunk name carrying
// it — is never handed out twice, whatever the last process left unsaved.
const epochGenShift = 32

// StartGeneration claims every slot, retired ones included, for a process
// that has just restored (or created) this server: each epoch moves to the
// first of a generation no earlier process used, which fences whatever the
// previous owner might still have had in flight. The claimant's replay
// starts at the slot's committed offset. The caller makes the claim durable
// before it builds a server under it.
func (s *Server) StartGeneration() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.epochs {
		s.gen = max(s.gen, e>>epochGenShift)
	}
	s.gen++
	for i := range s.epochs {
		s.epochs[i] = s.gen<<epochGenShift + 1
	}
}

// Epoch returns the current ownership epoch of a slot. Epochs start at 1
// and bump on every TransferOwnership; an indexing-server incarnation
// records the epoch it was built under and is fenced once it lags.
func (s *Server) Epoch(server int) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if server < 0 || server >= len(s.epochs) {
		return 0
	}
	return s.epochs[server]
}

// TransferOwnership is the atomic ownership flip of a region handoff (and
// equally the claim a crash replacement makes before replaying): in one
// critical section it bumps the slot's fencing epoch and reads the slot's
// nominal key interval. After it returns, any flush the deposed
// incarnation still has in flight fails with ErrFenced, so the metadata
// the new owner starts from cannot change under it.
func (s *Server) TransferOwnership(server int) (int64, model.KeyRange, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if server < 0 || server >= len(s.epochs) {
		return 0, model.KeyRange{}, fmt.Errorf("meta: transfer ownership: no slot %d", server)
	}
	s.epochs[server]++
	return s.epochs[server], s.schema.IntervalOf(server), nil
}

// RegisterFlushOwned registers a flush unit's chunks and advances the
// slot's replay offset in one epoch-guarded critical section. The two
// must move together: if an ownership transfer could land between the
// chunk registration and the offset commit, the incoming owner would
// replay records that are already in a registered chunk and duplicate
// them. The offset only moves forward; a stale epoch rejects the whole
// unit with ErrFenced and registers nothing.
func (s *Server) RegisterFlushOwned(server int, epoch int64, infos []ChunkInfo, off int64) ([]ChunkInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if server < 0 || server >= len(s.epochs) {
		return nil, fmt.Errorf("meta: register flush: no slot %d", server)
	}
	if epoch != s.epochs[server] {
		return nil, ErrFenced
	}
	s.offsets[server] = max(s.offsets[server], off)
	return s.indexLocked(infos, false), nil
}

// AddServer allocates a new slot by splitting an active slot's interval
// at key `at`: splitFrom keeps [lo, at-1] and the new slot owns [at, hi].
// The new slot's id equals the previous total slot count (slot i <-> WAL
// partition i, so the caller must grow the log in step). Returns the new
// schema and the new slot id.
func (s *Server) AddServer(splitFrom int, at model.Key) (PartitionSchema, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.schema.slotIndex(splitFrom)
	if j < 0 {
		return PartitionSchema{}, 0, fmt.Errorf("meta: add server: slot %d not active", splitFrom)
	}
	kr := s.schema.IntervalOf(splitFrom)
	if at <= kr.Lo || at > kr.Hi {
		return PartitionSchema{}, 0, fmt.Errorf("meta: add server: split key %d outside (%d, %d]", at, kr.Lo, kr.Hi)
	}
	id := s.schema.Servers
	slots := s.schema.ActiveSlots()
	slots = append(slots, 0)
	copy(slots[j+2:], slots[j+1:])
	slots[j+1] = id
	bounds := append([]model.Key(nil), s.schema.Bounds...)
	bounds = append(bounds, 0)
	copy(bounds[j+1:], bounds[j:])
	bounds[j] = at
	s.schema = PartitionSchema{
		Version: s.schema.Version + 1,
		Servers: id + 1,
		Slots:   slots,
		Bounds:  bounds,
	}
	s.offsets = append(s.offsets, 0)
	s.epochs = append(s.epochs, s.gen<<epochGenShift+1)
	return clonedSchema(s.schema), id, nil
}

// RemoveServer retires an active slot, merging its key interval into a
// neighbor (the left one when it exists, else the right). The outgoing
// server still holds buffered tuples it must flush, and it answers for them
// itself until the slot stops being served. The epoch is not bumped here —
// the caller fences the slot with TransferOwnership after the final flush
// so the retiring server can register it.
func (s *Server) RemoveServer(server int) (PartitionSchema, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.schema.slotIndex(server)
	if j < 0 {
		return PartitionSchema{}, fmt.Errorf("meta: remove server: slot %d not active", server)
	}
	slots := s.schema.ActiveSlots()
	if len(slots) < 2 {
		return PartitionSchema{}, fmt.Errorf("meta: remove server: slot %d is the last active slot", server)
	}
	slots = append(slots[:j], slots[j+1:]...)
	bounds := append([]model.Key(nil), s.schema.Bounds...)
	if j > 0 {
		// Merge into the left neighbor: drop the separator below us.
		bounds = append(bounds[:j-1], bounds[j:]...)
	} else {
		// Leftmost slot: the right neighbor absorbs the interval.
		bounds = bounds[1:]
	}
	s.schema = PartitionSchema{
		Version: s.schema.Version + 1,
		Servers: s.schema.Servers,
		Slots:   slots,
		Bounds:  bounds,
	}
	return clonedSchema(s.schema), nil
}
