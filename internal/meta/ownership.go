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

// ClaimSlots claims every slot, retired ones included, for a process that
// has just opened (or created) this server: each epoch moves up by one,
// which fences whatever the previous owner might still have had in flight.
// The claimant's replay starts at the slot's committed offset. It returns
// once the claim is durable, so no incarnation built under it can write a
// chunk named by an epoch a crash could hand out again.
func (s *Server) ClaimSlots() error {
	_, err := s.editState(func(st *state) error {
		for i := range st.Epochs {
			st.Epochs[i]++
		}
		return nil
	})
	return err
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
// the new owner starts from cannot change under it. It returns once the
// flip is durable.
func (s *Server) TransferOwnership(server int) (int64, model.KeyRange, error) {
	var epoch int64
	schema, err := s.editState(func(st *state) error {
		if server < 0 || server >= len(st.Epochs) {
			return fmt.Errorf("meta: transfer ownership: no slot %d", server)
		}
		st.Epochs[server]++
		epoch = st.Epochs[server]
		return nil
	})
	if err != nil {
		return 0, model.KeyRange{}, err
	}
	return epoch, schema.IntervalOf(server), nil
}

// RegisterFlushOwned registers a flush unit's chunks and advances the
// slot's replay offset in one epoch-guarded critical section. The two
// must move together: if an ownership transfer could land between the
// chunk registration and the offset commit, the incoming owner would
// replay records that are already in a registered chunk and duplicate
// them, so they are one journal record. The offset only moves forward; a
// stale epoch rejects the whole unit with ErrFenced and registers nothing,
// as does a journal that refuses the record.
//
// Unlike every other edit it returns without waiting for its record: the
// flusher calls it under the lock queries read its pending list by, and
// waits with Sync once it has let go of that lock, before it acts on the
// commit.
func (s *Server) RegisterFlushOwned(server int, epoch int64, infos []ChunkInfo, off int64) ([]ChunkInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if server < 0 || server >= len(s.epochs) {
		return nil, fmt.Errorf("meta: register flush: no slot %d", server)
	}
	if epoch != s.epochs[server] {
		return nil, ErrFenced
	}
	e := &record{Puts: s.numberLocked(infos)}
	if off > s.offsets[server] {
		st := s.stateLocked()
		st.Offsets[server] = off
		e.State = &st
	}
	if _, err := s.commitLocked(e); err != nil {
		return nil, err
	}
	return e.Puts, nil
}

// AddServer allocates a new slot by splitting an active slot's interval
// at key `at`: splitFrom keeps [lo, at-1] and the new slot owns [at, hi].
// The new slot's id equals the previous total slot count (slot i <-> WAL
// partition i, so the caller must grow the log in step). Returns the new
// schema and the new slot id.
func (s *Server) AddServer(splitFrom int, at model.Key) (PartitionSchema, int, error) {
	var id int
	schema, err := s.editState(func(st *state) error {
		j := st.Schema.slotIndex(splitFrom)
		if j < 0 {
			return fmt.Errorf("meta: add server: slot %d not active", splitFrom)
		}
		kr := st.Schema.IntervalOf(splitFrom)
		if at <= kr.Lo || at > kr.Hi {
			return fmt.Errorf("meta: add server: split key %d outside (%d, %d]", at, kr.Lo, kr.Hi)
		}
		id = st.Schema.Servers
		slots := st.Schema.ActiveSlots()
		slots = append(slots, 0)
		copy(slots[j+2:], slots[j+1:])
		slots[j+1] = id
		bounds := append(st.Schema.Bounds, 0)
		copy(bounds[j+1:], bounds[j:])
		bounds[j] = at
		st.Schema = PartitionSchema{
			Version: st.Schema.Version + 1,
			Servers: id + 1,
			Slots:   slots,
			Bounds:  bounds,
		}
		st.Offsets = append(st.Offsets, 0)
		st.Epochs = append(st.Epochs, 1)
		return nil
	})
	return schema, id, err
}

// RemoveServer retires an active slot, merging its key interval into a
// neighbor (the left one when it exists, else the right). The outgoing
// server still holds buffered tuples it must flush, and it answers for them
// itself until the slot stops being served. The epoch is not bumped here —
// the caller fences the slot with TransferOwnership after the final flush
// so the retiring server can register it.
func (s *Server) RemoveServer(server int) (PartitionSchema, error) {
	return s.editState(func(st *state) error {
		j := st.Schema.slotIndex(server)
		if j < 0 {
			return fmt.Errorf("meta: remove server: slot %d not active", server)
		}
		slots := st.Schema.ActiveSlots()
		if len(slots) < 2 {
			return fmt.Errorf("meta: remove server: slot %d is the last active slot", server)
		}
		slots = append(slots[:j], slots[j+1:]...)
		bounds := st.Schema.Bounds
		if j > 0 {
			// Merge into the left neighbor: drop the separator below us.
			bounds = append(bounds[:j-1], bounds[j:]...)
		} else {
			// Leftmost slot: the right neighbor absorbs the interval.
			bounds = bounds[1:]
		}
		st.Schema = PartitionSchema{
			Version: st.Schema.Version + 1,
			Servers: st.Schema.Servers,
			Slots:   slots,
			Bounds:  bounds,
		}
		return nil
	})
}
