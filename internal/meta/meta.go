// Package meta implements Waterwheel's metadata server (paper §II-B). It
// maintains the states of the system: the global key-partitioning schema of
// the dispatchers (including the *actual*, possibly overlapping key
// intervals right after a repartition, §III-D), the property information of
// every flushed data chunk (indexed by an R-tree for query decomposition,
// §IV-A), the live in-memory regions of the indexing servers, the WAL read
// offsets recorded at each flush (§V), and the registry of running queries
// used for coordinator failover.
//
// Durability stands in for ZooKeeper: Snapshot/Restore round-trips the
// whole state through a gob encoding.
package meta

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
	"sync"

	"waterwheel/internal/model"
	"waterwheel/internal/rtree"
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
	// the pre-aggregate block: what a range subquery reads. Snapshots
	// written before it existed decode it as 0, and a query server then
	// reads the whole header.
	IndexLen int
	// Server is the indexing server that produced the chunk.
	Server int
	// Agg, when present, summarizes the chunk's designated payload field —
	// the coordinator answers aggregate queries over fully covered chunks
	// from it without issuing a subquery.
	Agg *model.ChunkAgg
	// Tier is the chunk's retention tier (TierHot/TierWarm/TierCold). New
	// chunks start hot; the compactor demotes them by age behind the
	// newest registered data. Old snapshots decode to TierHot.
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

// LiveRegion describes the in-memory (unflushed) region of an indexing
// server: its actual key interval × [MinTime, now].
type LiveRegion struct {
	Server int
	// Keys is the actual key interval, which may overlap other servers'
	// right after a repartition.
	Keys model.KeyRange
	// MinTime is the left temporal boundary of the in-memory B+ tree; zero
	// tuples is signalled by Empty.
	MinTime model.Timestamp
	Empty   bool
}

// QueryInfo tracks a running query for coordinator failover (§V).
type QueryInfo struct {
	ID    uint64
	Query model.Query
	// AsOf is the query's plan horizon: the smallest chunk ID that could
	// not have been in the query's plan because it registered after the
	// query did. Indexing servers keep flushed-but-in-plan-limbo snapshots
	// in memory until every active query's horizon has passed the chunk
	// (see Server.MinQueryAsOf). Zero means "no horizon recorded" (queries
	// restored from snapshots predating this field).
	AsOf uint64
}

// Server is the metadata server.
type Server struct {
	mu        sync.RWMutex
	schema    PartitionSchema
	actual    []model.KeyRange
	live      []LiveRegion
	chunks    map[model.ChunkID]ChunkInfo
	regions   *rtree.Tree // region -> ChunkID
	offsets   []int64
	epochs    []int64
	handoffs  []int64
	gen       int64 // process generation new epochs start in; see StartGeneration
	queries   map[uint64]QueryInfo
	nextChunk uint64
	nextQuery uint64
	tiers     *tierIndex
	maxTime   model.Timestamp // max Region.Times.Hi ever registered
}

// NewServer creates a metadata server for the given number of indexing
// servers, with an even initial key partitioning.
func NewServer(indexServers int) *Server {
	if indexServers < 1 {
		indexServers = 1
	}
	s := &Server{
		schema:   EvenSchema(indexServers),
		chunks:   make(map[model.ChunkID]ChunkInfo),
		regions:  rtree.New(16),
		offsets:  make([]int64, indexServers),
		epochs:   make([]int64, indexServers),
		handoffs: make([]int64, indexServers),
		queries:  make(map[uint64]QueryInfo),
		actual:   make([]model.KeyRange, indexServers),
		live:     make([]LiveRegion, indexServers),
		tiers:    newTierIndex(),
	}
	for i := range s.actual {
		s.actual[i] = s.schema.IntervalOf(i)
		s.live[i] = LiveRegion{Server: i, Keys: s.actual[i], Empty: true}
		s.epochs[i] = 1
	}
	return s
}

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
// bumping the version. Each server's actual interval becomes the union of
// its old actual interval and its new nominal interval until the next
// flush shrinks it (§III-D).
func (s *Server) SetSchema(bounds []model.Key) (PartitionSchema, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if want := s.schema.ActiveCount() - 1; len(bounds) != want {
		return PartitionSchema{}, fmt.Errorf("meta: schema needs %d bounds, got %d", want, len(bounds))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return PartitionSchema{}, fmt.Errorf("meta: bounds not ascending at %d", i)
		}
	}
	s.schema = PartitionSchema{
		Version: s.schema.Version + 1,
		Servers: s.schema.Servers,
		Slots:   s.schema.Slots,
		Bounds:  append([]model.Key(nil), bounds...),
	}
	for i := range s.actual {
		// Widen unconditionally — never snap to nominal here. The live
		// region's Empty flag can be stale (WAL backlog acked but not yet
		// consumed), so narrowing on it would hide backlog tuples routed
		// under the old schema. The next ReportLive shrinks the actual
		// interval to nominal ∪ the server's measured key box.
		nom := s.schema.IntervalOf(i)
		if nom.Lo < s.actual[i].Lo {
			s.actual[i].Lo = nom.Lo
		}
		if nom.Hi > s.actual[i].Hi {
			s.actual[i].Hi = nom.Hi
		}
		s.live[i].Keys = s.actual[i]
	}
	return clonedSchema(s.schema), nil
}

// ReportLive updates an indexing server's live region after inserts or a
// flush. keys is the exact key bounding box of the server's in-memory
// tuples (memtable, side store, unregistered snapshots); the actual
// interval becomes the union of the nominal interval and that box, so it
// covers every buffered tuple however stale the routing that placed it —
// and shrinks back to nominal on its own as flushes drain the old keys.
// Empty=true marks the memtable as drained (keys is ignored), which snaps
// the actual interval to the nominal one. The box is measured by the
// server itself, so a schema change between the measurement and this call
// cannot invalidate it: the box covers the buffered tuples regardless of
// which schema routed them.
func (s *Server) ReportLive(server int, minTime model.Timestamp, keys model.KeyRange, empty bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if server < 0 || server >= len(s.live) {
		return
	}
	nom := s.schema.IntervalOf(server)
	if empty {
		s.actual[server] = nom
	} else {
		if keys.Lo < nom.Lo {
			nom.Lo = keys.Lo
		}
		if keys.Hi > nom.Hi {
			nom.Hi = keys.Hi
		}
		s.actual[server] = nom
	}
	s.live[server] = LiveRegion{
		Server:  server,
		Keys:    s.actual[server],
		MinTime: minTime,
		Empty:   empty,
	}
}

// LiveRegions returns the current live regions of all indexing servers.
func (s *Server) LiveRegions() []LiveRegion {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]LiveRegion(nil), s.live...)
}

// RegisterChunks registers several chunks in one critical section, so their
// IDs are consecutive and no watermark read (ChunksForWithWatermark) can
// land between them: a query plan sees either none or all of the batch.
// Indexing servers rely on this when a flush unit carries both a main and a
// side snapshot covered by a single WAL offset.
func (s *Server) RegisterChunks(infos []ChunkInfo) []ChunkInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ChunkInfo, len(infos))
	for i, info := range infos {
		s.nextChunk++
		info.ID = model.ChunkID(s.nextChunk)
		s.chunks[info.ID] = info
		s.regions.Insert(info.Region, info.ID)
		s.trackLocked(info)
		out[i] = info
	}
	return out
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

// DropChunk removes a chunk from the registry (retention).
func (s *Server) DropChunk(id model.ChunkID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	info, ok := s.chunks[id]
	if !ok {
		return false
	}
	delete(s.chunks, id)
	s.regions.Delete(info.Region, func(v any) bool { return v.(model.ChunkID) == id })
	s.tiers.remove(info.Region.Times)
	return true
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

// RegisterQuery stores a running query and assigns its ID. The query's
// plan horizon (AsOf) is captured here: chunks registered from now on
// cannot appear in its plan.
func (s *Server) RegisterQuery(q model.Query) model.Query {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextQuery++
	q.ID = s.nextQuery
	s.queries[q.ID] = QueryInfo{ID: q.ID, Query: q, AsOf: s.nextChunk + 1}
	return q
}

// MinQueryAsOf returns the smallest plan horizon over the active queries —
// the chunk-ID floor below which no active query can still need a flushed
// snapshot's in-memory copy. With no active queries it returns MaxUint64.
// A zero AsOf (query restored from an old snapshot, horizon unknown) pins
// everything, erring on the safe side.
func (s *Server) MinQueryAsOf() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	min := ^uint64(0)
	for _, q := range s.queries {
		asOf := q.AsOf
		if asOf == 0 {
			return 0
		}
		if asOf < min {
			min = asOf
		}
	}
	return min
}

// CompleteQuery removes a finished query.
func (s *Server) CompleteQuery(id uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.queries, id)
}

// persistentState is the gob image of the server.
type persistentState struct {
	Schema    PartitionSchema
	Actual    []model.KeyRange
	Live      []LiveRegion
	Chunks    []ChunkInfo
	Offsets   []int64
	Epochs    []int64
	Handoffs  []int64
	Queries   []QueryInfo
	NextChunk uint64
	NextQuery uint64
}

// Snapshot serializes the full metadata state.
func (s *Server) Snapshot() ([]byte, error) {
	s.mu.RLock()
	st := persistentState{
		Schema:    clonedSchema(s.schema),
		Actual:    append([]model.KeyRange(nil), s.actual...),
		Live:      append([]LiveRegion(nil), s.live...),
		Offsets:   append([]int64(nil), s.offsets...),
		Epochs:    append([]int64(nil), s.epochs...),
		Handoffs:  append([]int64(nil), s.handoffs...),
		NextChunk: s.nextChunk,
		NextQuery: s.nextQuery,
	}
	for _, c := range s.chunks {
		st.Chunks = append(st.Chunks, c)
	}
	for _, q := range s.queries {
		st.Queries = append(st.Queries, q)
	}
	s.mu.RUnlock()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		return nil, fmt.Errorf("meta: snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// Restore rebuilds a metadata server from a snapshot.
func Restore(data []byte) (*Server, error) {
	var st persistentState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return nil, fmt.Errorf("meta: restore: %w", err)
	}
	s := NewServer(st.Schema.Servers)
	s.schema = st.Schema
	s.actual = st.Actual
	s.live = st.Live
	s.offsets = st.Offsets
	// Snapshots predating ownership epochs carry none: every slot starts
	// at epoch 1, the value NewServer seeded.
	if st.Epochs != nil {
		s.epochs = st.Epochs
	}
	if st.Handoffs != nil {
		s.handoffs = st.Handoffs
	}
	s.nextChunk = st.NextChunk
	s.nextQuery = st.NextQuery
	for _, c := range st.Chunks {
		s.chunks[c.ID] = c
		s.regions.Insert(c.Region, c.ID)
		s.trackLocked(c)
	}
	for _, q := range st.Queries {
		s.queries[q.ID] = q
	}
	return s, nil
}
