// Package meta implements Waterwheel's metadata server (paper §II-B). It
// maintains the states of the system: the global key-partitioning schema of
// the dispatchers, the property information of every flushed data chunk
// (indexed by one R-tree for query decomposition, §IV-A), the WAL read
// offsets recorded at each flush (§V), the ownership epochs that fence
// deposed servers, and the plan horizons of the running queries. The
// indexing servers' live regions are not here: the coordinator asks the
// serving servers for them at plan time (ingest.Server.MemBounds).
//
// Durability stands in for ZooKeeper: a server opened over a journal (Open,
// journal.go) makes every edit to the state a restart resumes from durable
// before anyone acts on it. Running queries are not part of it — they end
// with the process that ran them. A NewServer has no journal.
package meta

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"waterwheel/internal/model"
	"waterwheel/internal/rtree"
	"waterwheel/internal/wal"
)

// ChunkInfo is the metadata of one flushed data chunk.
type ChunkInfo struct {
	ID model.ChunkID
	// Path is the file name in the distributed file system.
	Path string
	// Region is the key×time rectangle the chunk covers. Regions of chunks
	// written right after a key repartition may overlap (§III-D), as may
	// chunks containing late tuples (§IV-D).
	Region model.Region
	// Count is the number of tuples.
	Count int
	// Size is the chunk size in bytes.
	Size int64
	// HeaderLen is the chunk's header-block length, letting query servers
	// fetch exactly the header (the cacheable "template" unit) in one read.
	HeaderLen int
	// IndexLen is the length of the header's index prefix, the part before
	// the pre-aggregate block: what a range subquery reads. Zero makes a
	// query server read the whole header.
	IndexLen int
	// Server is the indexing server that produced the chunk.
	Server int
	// Agg, when present, summarizes the chunk's designated payload field —
	// the coordinator answers aggregate queries over fully covered chunks
	// from it without issuing a subquery.
	Agg *model.ChunkAgg
	// Tier is the chunk's retention tier (TierHot/TierWarm/TierCold). New
	// chunks start hot; the compactor demotes them by age behind the
	// newest registered data.
	Tier int
	// Downsampled marks a compactor output: its rows are the per-leaf
	// pre-aggregate buckets of the retired inputs, not raw tuples.
	Downsampled bool
}

// PartitionSchema is the global key partitioning. Slot ids are stable for
// the lifetime of the cluster (slot i <-> WAL partition i), but the set of
// *active* slots changes as servers are added and decommissioned: the
// active slots, listed in ascending key order in Slots, own consecutive
// key intervals separated by Bounds. A nil Slots means every slot
// 0..Servers-1 is active in id order (the static-cluster layout every
// schema had before elastic scale-out).
type PartitionSchema struct {
	// Version increases with every repartition.
	Version int64
	// Servers is the total number of slots ever allocated, active or not.
	Servers int
	// Slots lists the active slot ids in ascending key order. nil means
	// the identity layout over [0, Servers).
	Slots []int
	// Bounds has ActiveCount()-1 separator keys, ascending: the j-th
	// active slot owns [Bounds[j-1], Bounds[j]) with the outermost
	// intervals extended to the domain edges.
	Bounds []model.Key
}

// ActiveCount returns the number of active slots.
func (s PartitionSchema) ActiveCount() int {
	if s.Slots == nil {
		return s.Servers
	}
	return len(s.Slots)
}

// ActiveSlots returns the active slot ids in ascending key order.
func (s PartitionSchema) ActiveSlots() []int {
	if s.Slots != nil {
		return append([]int(nil), s.Slots...)
	}
	out := make([]int, s.Servers)
	for i := range out {
		out[i] = i
	}
	return out
}

// Active reports whether slot i currently owns a key interval.
func (s PartitionSchema) Active(i int) bool {
	return s.slotIndex(i) >= 0
}

// slotIndex returns slot i's position in key order, or -1 if retired.
func (s PartitionSchema) slotIndex(i int) int {
	if s.Slots == nil {
		if i >= 0 && i < s.Servers {
			return i
		}
		return -1
	}
	for j, id := range s.Slots {
		if id == i {
			return j
		}
	}
	return -1
}

// PositionFor returns the key-order position of the active slot owning k.
func (s PartitionSchema) PositionFor(k model.Key) int {
	return sort.Search(len(s.Bounds), func(i int) bool { return k < s.Bounds[i] })
}

// ServerFor returns the indexing server (slot id) owning key k.
func (s PartitionSchema) ServerFor(k model.Key) int {
	j := s.PositionFor(k)
	if s.Slots == nil {
		return j
	}
	return s.Slots[j]
}

// IntervalOf returns the nominal key interval of slot i. A retired slot
// owns nothing and gets an empty (inverted) range.
func (s PartitionSchema) IntervalOf(i int) model.KeyRange {
	j := s.slotIndex(i)
	if j < 0 {
		return model.KeyRange{Lo: 1, Hi: 0}
	}
	kr := model.FullKeyRange()
	if j > 0 {
		kr.Lo = s.Bounds[j-1]
	}
	if j < len(s.Bounds) {
		kr.Hi = s.Bounds[j] - 1
	}
	return kr
}

// EvenSchema builds the initial schema dividing the full key domain evenly.
func EvenSchema(servers int) PartitionSchema {
	if servers < 1 {
		servers = 1
	}
	s := PartitionSchema{Version: 1, Servers: servers}
	step := ^uint64(0)/uint64(servers) + 1
	for i := 1; i < servers; i++ {
		s.Bounds = append(s.Bounds, model.Key(uint64(i)*step))
	}
	return s
}

// Server is the metadata server.
type Server struct {
	mu      sync.RWMutex
	schema  PartitionSchema
	chunks  map[model.ChunkID]ChunkInfo
	regions *rtree.Tree // region -> ChunkID
	offsets []int64
	epochs  []int64
	// queries maps each running query's ID to its plan horizon: the
	// smallest chunk ID that cannot be in its plan because it registered
	// after the query did (see MinQueryAsOf).
	queries   map[uint64]uint64
	nextChunk uint64
	nextQuery uint64
	maxTime   model.Timestamp // max Region.Times.Hi ever registered

	// j is the journal (nil: none, see journal.go). sinceImage counts the
	// records appended or replayed since the last image; image is the
	// offset of the newest image, which the journal may be cut at.
	j          *wal.Partition
	jcfg       JournalConfig
	sinceImage atomic.Int64
	image      atomic.Int64
}

// NewServer creates a metadata server for the given number of indexing
// servers, with an even initial key partitioning.
func NewServer(indexServers int) *Server {
	if indexServers < 1 {
		indexServers = 1
	}
	s := &Server{
		schema:  EvenSchema(indexServers),
		chunks:  make(map[model.ChunkID]ChunkInfo),
		regions: newRegions(),
		offsets: make([]int64, indexServers),
		epochs:  make([]int64, indexServers),
		queries: make(map[uint64]uint64),
	}
	for i := range s.epochs {
		s.epochs[i] = 1
	}
	return s
}

func newRegions() *rtree.Tree { return rtree.New(16) }

// Schema returns the current partition schema.
func (s *Server) Schema() PartitionSchema {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return clonedSchema(s.schema)
}

func clonedSchema(p PartitionSchema) PartitionSchema {
	p.Bounds = append([]model.Key(nil), p.Bounds...)
	if p.Slots != nil {
		p.Slots = append([]int(nil), p.Slots...)
	}
	return p
}

// SetSchema installs a new key partitioning (same active-slot set),
// bumping the version.
func (s *Server) SetSchema(bounds []model.Key) (PartitionSchema, error) {
	return s.editState(func(st *state) error {
		if want := st.Schema.ActiveCount() - 1; len(bounds) != want {
			return fmt.Errorf("meta: schema needs %d bounds, got %d", want, len(bounds))
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				return fmt.Errorf("meta: bounds not ascending at %d", i)
			}
		}
		st.Schema.Version++
		st.Schema.Bounds = append([]model.Key(nil), bounds...)
		return nil
	})
}

// editState commits the change change makes to a copy of the state and
// returns the schema it leaves.
func (s *Server) editState(change func(*state) error) (PartitionSchema, error) {
	var st state
	err := s.commit(func() (*record, error) {
		st = s.stateLocked()
		return &record{State: &st}, change(&st)
	})
	return clonedSchema(st.Schema), err
}

// errNoChunk refuses an edit of a chunk the registry does not hold.
var errNoChunk = errors.New("meta: no such chunk")

// commit builds a record under mu and makes it the registry's next edit,
// returning once it is durable; an error from build commits nothing.
func (s *Server) commit(build func() (*record, error)) error {
	s.mu.Lock()
	r, err := build()
	if err == nil {
		err = s.commitLocked(r)
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.Sync()
}

// RegisterChunks registers several chunks in one critical section, so their
// IDs are consecutive and no watermark read (ChunksForWithWatermark) can
// land between them: a query plan sees either none or all of the batch.
// Indexing servers rely on this when a flush unit carries both a main and a
// side snapshot covered by a single WAL offset. Returns nil, registering
// nothing, when the journal refuses the edit.
func (s *Server) RegisterChunks(infos []ChunkInfo) []ChunkInfo {
	r := &record{}
	if s.commit(func() (*record, error) { r.Puts = s.numberLocked(infos); return r, nil }) != nil {
		return nil
	}
	return r.Puts
}

// numberLocked returns infos under the next chunk IDs, consecutive and in
// order: the one place a chunk gets its ID. Requires mu.
func (s *Server) numberLocked(infos []ChunkInfo) []ChunkInfo {
	out := make([]ChunkInfo, len(infos))
	for i, info := range infos {
		info.ID = model.ChunkID(s.nextChunk + 1 + uint64(i))
		out[i] = info
	}
	return out
}

// indexLocked files chunks under their IDs in the registry and the R-tree
// and advances the max-time clock. nextChunk stays at or above every ID
// filed, so a gap a drop left stays a gap and no ID is handed out twice.
// Requires mu.
func (s *Server) indexLocked(infos []ChunkInfo) {
	for _, info := range infos {
		s.nextChunk = max(s.nextChunk, uint64(info.ID))
		s.chunks[info.ID] = info
		s.regions.Insert(info.Region, info.ID)
		s.maxTime = max(s.maxTime, info.Region.Times.Hi)
	}
}

// Chunk returns the metadata of one chunk.
func (s *Server) Chunk(id model.ChunkID) (ChunkInfo, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	info, ok := s.chunks[id]
	return info, ok
}

// ChunksFor returns the chunks whose regions overlap r — the query-region
// candidates of §IV-A.
func (s *Server) ChunksFor(r model.Region) []ChunkInfo {
	chunks, _ := s.ChunksForWithWatermark(r)
	return chunks
}

// ChunksForWithWatermark returns the overlapping chunks together with the
// chunk-ID watermark — the ID the *next* registered chunk will receive.
// Both come from the same critical section, so the caller knows exactly
// which chunks its plan could have seen: any chunk with ID >= watermark
// registered strictly after this lookup and must be served from the
// producing server's in-memory pending snapshot instead.
func (s *Server) ChunksForWithWatermark(r model.Region) ([]ChunkInfo, uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := s.regions.Search(r)
	out := make([]ChunkInfo, 0, len(ids))
	for _, id := range ids {
		out = append(out, s.chunks[id.(model.ChunkID)])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, s.nextChunk + 1
}

// ChunkCount returns the number of registered chunks.
func (s *Server) ChunkCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.chunks)
}

// DropChunk removes a chunk from the registry (retention). It returns once
// the drop is durable, false when the chunk is not registered or the
// journal refused the drop.
func (s *Server) DropChunk(id model.ChunkID) bool {
	return s.commit(func() (*record, error) {
		if _, ok := s.chunks[id]; !ok {
			return nil, errNoChunk
		}
		return &record{Drops: []model.ChunkID{id}}, nil
	}) == nil
}

// unindexLocked removes a chunk from the registry and the R-tree. Requires
// mu.
func (s *Server) unindexLocked(info ChunkInfo) {
	delete(s.chunks, info.ID)
	s.regions.Delete(info.Region, func(v any) bool { return v.(model.ChunkID) == info.ID })
}

// ReplaceChunks atomically swaps a set of input chunks for their
// compacted outputs: in one critical section, and one journal record, the
// inputs are verified and dropped, and the outputs registered with fresh
// IDs. A concurrent ChunksForWithWatermark sees either every input or every
// output, never a mix, so no query plan can double-count or miss the region,
// and a crash leaves one or the other registered. It returns once the swap
// is durable: the registered outputs, the dropped input infos (the caller
// retires their files), and false — with no change — if any input is
// missing or the journal refused the swap.
func (s *Server) ReplaceChunks(outs []ChunkInfo, ins []model.ChunkID) (registered, dropped []ChunkInfo, ok bool) {
	r := &record{Drops: ins}
	err := s.commit(func() (*record, error) {
		for _, id := range ins {
			info, found := s.chunks[id]
			if !found {
				return nil, errNoChunk
			}
			dropped = append(dropped, info)
		}
		r.Puts = s.numberLocked(outs)
		return r, nil
	})
	if err != nil {
		return nil, nil, false
	}
	return r.Puts, dropped, true
}

// Offset returns the stored WAL offset of an indexing server.
func (s *Server) Offset(server int) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if server < 0 || server >= len(s.offsets) {
		return 0
	}
	return s.offsets[server]
}

// RegisterQuery records a running query and assigns its ID. The query's
// plan horizon is captured here: chunks registered from now on cannot
// appear in its plan.
func (s *Server) RegisterQuery(q model.Query) model.Query {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextQuery++
	q.ID = s.nextQuery
	s.queries[q.ID] = s.nextChunk + 1
	return q
}

// MinQueryAsOf returns the smallest plan horizon over the running queries —
// the chunk-ID floor below which no running query can still need a flushed
// snapshot's in-memory copy. With no running queries it returns MaxUint64.
func (s *Server) MinQueryAsOf() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	floor := ^uint64(0)
	for _, asOf := range s.queries {
		floor = min(floor, asOf)
	}
	return floor
}

// QueryHorizon returns the last query ID assigned. Every query planned
// before now has ID <= QueryHorizon(); the drain-safe retirement path
// captures this at drop time and defers the file delete until
// OldestActiveQuery has passed it.
func (s *Server) QueryHorizon() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.nextQuery
}

// OldestActiveQuery returns the smallest running query ID, or MaxUint64
// when no query is running.
func (s *Server) OldestActiveQuery() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	oldest := ^uint64(0)
	for id := range s.queries {
		oldest = min(oldest, id)
	}
	return oldest
}

// CompleteQuery removes a finished query.
func (s *Server) CompleteQuery(id uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.queries, id)
}

// Snapshot returns the registry's image: the state a restart resumes from
// and every chunk, in one journal record.
func (s *Server) Snapshot() ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.imageLocked(), nil
}

// Restore rebuilds a metadata server, with no journal, from an image. It
// starts with no running query. Anything but an image of this version is
// ErrVersion; an image that does not parse is ErrCorrupt.
func Restore(data []byte) (*Server, error) {
	r, err := decode(data)
	if err == nil && !r.Image {
		err = fmt.Errorf("%w: an edit, not an image", ErrCorrupt)
	}
	if err != nil {
		return nil, fmt.Errorf("meta: restore: %w", err)
	}
	s := NewServer(r.State.Schema.Servers)
	s.applyLocked(r)
	return s, nil
}
