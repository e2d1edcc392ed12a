// Package compact implements hierarchical time tiering over flushed
// chunks. A background compactor demotes chunks through hot → warm →
// cold tiers as they age behind the newest registered data, then merges
// groups of cold chunks into larger downsampled chunks: each per-leaf
// pre-aggregate bucket of an input becomes one synthetic row of the
// output (chunk.AppendDownsampledPayload), so coarse historical queries
// keep working at bucket resolution while the raw inputs are retired.
//
// The swap is atomic in metadata (meta.Server.ReplaceChunks) and the
// input files are retired through the caller-supplied retire hook, which
// defers file deletion until in-flight queries drain — a query planned
// against an input chunk either finds its bytes still on the DFS or is
// redispatched after a typed retirement error, never a raw read fault.
package compact

import (
	"fmt"
	"sort"
	"sync/atomic"

	"waterwheel/internal/chunk"
	"waterwheel/internal/core"
	"waterwheel/internal/dfs"
	"waterwheel/internal/meta"
	"waterwheel/internal/model"
	"waterwheel/internal/telemetry"
)

// minInputs is the minimum number of cold chunks in one (server,
// day-bucket) group worth merging.
const minInputs = 2

// Config tunes the compactor.
type Config struct {
	// WarmAfterMillis demotes a chunk to the warm tier once its max time
	// lags the newest registered data by this much. 0 disables warm
	// demotion.
	WarmAfterMillis int64
	// ColdAfterMillis demotes to cold (and makes the chunk a compaction
	// candidate). 0 disables cold demotion — and with it, compaction.
	ColdAfterMillis int64
	// Leaves is the leaf count of compacted output chunks. Default 32.
	Leaves int
	// Build tunes output chunk serialization. The pre-aggregate block is
	// always disabled: downsampled rows ARE aggregates, and re-aggregating
	// them field-wise would double-count.
	Build chunk.BuildOptions
}

func (c *Config) fill() {
	if c.Leaves <= 0 {
		c.Leaves = 32
	}
}

// Metrics is the compactor's telemetry set.
type Metrics struct {
	// Demotions counts tier demotions (hot→warm, warm→cold).
	Demotions *telemetry.Counter
	// Runs counts completed compaction merges.
	Runs *telemetry.Counter
	// InputChunks counts chunks consumed by merges.
	InputChunks *telemetry.Counter
	// InputBytes / OutputBytes measure the size ratio of compaction.
	InputBytes  *telemetry.Counter
	OutputBytes *telemetry.Counter
	// Errors counts failed merge attempts (inputs stay registered).
	Errors *telemetry.Counter
}

// NewMetrics registers the compaction metric set on r (nil r keeps the
// metrics private).
func NewMetrics(r *telemetry.Registry) *Metrics {
	if r == nil {
		r = telemetry.NewRegistry()
	}
	return &Metrics{
		Demotions:   r.Counter("waterwheel_tier_demotions_total", "chunk tier demotions by age (hot→warm, warm→cold)"),
		Runs:        r.Counter("waterwheel_compactions_total", "completed cold-tier compaction merges"),
		InputChunks: r.Counter("waterwheel_compaction_input_chunks_total", "chunks consumed by compaction merges"),
		InputBytes:  r.Counter("waterwheel_compaction_input_bytes_total", "bytes of chunks consumed by compaction"),
		OutputBytes: r.Counter("waterwheel_compaction_output_bytes_total", "bytes of downsampled chunks written by compaction"),
		Errors:      r.Counter("waterwheel_compaction_errors_total", "failed compaction merge attempts"),
	}
}

// Compactor demotes aging chunks and merges cold ones into downsampled
// chunks. Drive it from a ticker (cluster background loop) or call Tick
// directly (tests, manual compaction).
type Compactor struct {
	cfg    Config
	fs     *dfs.FS
	ms     *meta.Server
	m      *Metrics
	retire func([]meta.ChunkInfo)
	seq    atomic.Uint64
}

// New creates a compactor. retire receives the input chunks of every
// successful merge after their metadata is gone; it owns file deletion
// (nil means delete immediately — tests only).
func New(cfg Config, fs *dfs.FS, ms *meta.Server, m *Metrics, retire func([]meta.ChunkInfo)) *Compactor {
	cfg.fill()
	if m == nil {
		m = NewMetrics(nil)
	}
	cp := &Compactor{cfg: cfg, fs: fs, ms: ms, m: m, retire: retire}
	if cp.retire == nil {
		cp.retire = func(infos []meta.ChunkInfo) {
			for _, ci := range infos {
				cp.fs.Delete(ci.Path)
			}
		}
	}
	return cp
}

// Enabled reports whether any tier-aging knob is set; a disabled
// compactor's Tick is a no-op, so untiered deployments are unperturbed.
func (cp *Compactor) Enabled() bool {
	return cp.cfg.WarmAfterMillis > 0 || cp.cfg.ColdAfterMillis > 0
}

// Tick runs one demote-then-merge pass and reports how many chunks were
// demoted and how many merges completed. The age clock is the max
// registered data time, not the wall clock, so tiering follows the
// stream's own notion of "now".
func (cp *Compactor) Tick() (demoted, merged int) {
	if !cp.Enabled() {
		return 0, 0
	}
	clock := cp.ms.MaxTime()
	if clock == 0 {
		return 0, 0
	}
	all := cp.ms.ChunksFor(model.FullRegion())
	for i := range all {
		ci := &all[i]
		want := ci.Tier
		age := int64(clock) - int64(ci.Region.Times.Hi)
		if cp.cfg.ColdAfterMillis > 0 && age >= cp.cfg.ColdAfterMillis {
			want = meta.TierCold
		} else if cp.cfg.WarmAfterMillis > 0 && age >= cp.cfg.WarmAfterMillis && want < meta.TierWarm {
			want = meta.TierWarm
		}
		if want > ci.Tier && cp.ms.SetTier(ci.ID, want) {
			ci.Tier = want
			demoted++
			cp.m.Demotions.Inc()
		}
	}

	// Group cold chunks by (producing server, day bucket) so merges
	// stay local in both placement and time.
	type gkey struct {
		server int
		day    int64
	}
	groups := make(map[gkey][]meta.ChunkInfo)
	for _, ci := range all {
		if ci.Tier != meta.TierCold || ci.Downsampled {
			continue
		}
		k := gkey{ci.Server, model.FloorDiv(int64(ci.Region.Times.Lo), 24*3_600_000)}
		groups[k] = append(groups[k], ci)
	}
	keys := make([]gkey, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].server != keys[j].server {
			return keys[i].server < keys[j].server
		}
		return keys[i].day < keys[j].day
	})
	for _, k := range keys {
		g := groups[k]
		if len(g) < minInputs {
			continue
		}
		if err := cp.merge(k.server, k.day, g); err != nil {
			cp.m.Errors.Inc()
			continue
		}
		merged++
	}
	return demoted, merged
}

// merge compacts one group of cold chunks into a single downsampled
// chunk and swaps it into metadata atomically. Inputs without usable
// pre-aggregates are left out of the merge (they stay registered).
func (cp *Compactor) merge(server int, day int64, g []meta.ChunkInfo) error {
	var (
		ins     []model.ChunkID
		used    []meta.ChunkInfo
		tuples  []model.Tuple
		region  model.Region
		haveR   bool
		inBytes int64
	)
	for _, ci := range g {
		hb, _, err := cp.fs.ReadAt(ci.Path, 0, int64(ci.HeaderLen), ci.Server)
		if err != nil {
			return fmt.Errorf("compact: read header of chunk %d: %w", ci.ID, err)
		}
		h, err := chunk.ParseHeader(hb)
		if err != nil {
			return fmt.Errorf("compact: parse header of chunk %d: %w", ci.ID, err)
		}
		if !h.HasAgg || len(h.LeafKeys) != h.Leaves || len(h.LeafAggs) != h.Leaves {
			// No pre-aggregates to downsample into (ablation build, or
			// field mismatch); skip this input but keep merging the rest.
			continue
		}
		for li := 0; li < h.Leaves; li++ {
			if h.Dir[li].Count == 0 {
				continue
			}
			la := h.LeafAggs[li]
			for b, bucket := range la.Buckets {
				if bucket.Count == 0 {
					continue
				}
				t := model.Tuple{
					Key:     h.LeafKeys[li].Lo,
					Time:    model.Timestamp(la.First + int64(b)*la.Width),
					Payload: chunk.AppendDownsampledPayload(nil, bucket),
				}
				tuples = append(tuples, t)
				region, haveR = growRegion(region, haveR, t), true
			}
		}
		// Register the output under the union of the input regions (not
		// just the synthetic-row bounding box) so R-tree candidacy stays a
		// superset of what the raw inputs would have matched.
		if haveR {
			region = unionRegion(region, ci.Region)
		} else {
			region, haveR = ci.Region, true
		}
		ins = append(ins, ci.ID)
		used = append(used, ci)
		inBytes += ci.Size
	}
	if len(used) < minInputs || len(tuples) == 0 {
		return nil // nothing worth merging; not an error
	}

	tree := core.NewTemplateTree(core.TemplateConfig{
		Keys:   region.Keys,
		Leaves: cp.cfg.Leaves,
	})
	tree.InsertBatch(tuples)
	snap := tree.FlushReset()
	if snap == nil {
		return nil
	}
	opts := cp.cfg.Build
	opts.DisableAgg = true
	data, cm, err := chunk.Build(snap, opts)
	if err != nil {
		return fmt.Errorf("compact: build downsampled chunk: %w", err)
	}
	// Named like the slot's own chunks: under its ownership epoch, which a
	// process claims afresh for every slot, in a generation of its own,
	// before it runs (meta.StartGeneration): the per-process sequence never
	// meets an old name.
	path := fmt.Sprintf("chunks/compact-is%d-e%d-d%d-%d", server, cp.ms.Epoch(server), day, cp.seq.Add(1))
	if err := cp.fs.Write(path, data); err != nil {
		return fmt.Errorf("compact: write %s: %w", path, err)
	}
	out := meta.ChunkInfo{
		Path:        path,
		Region:      region,
		Count:       cm.Count,
		Size:        cm.Size,
		HeaderLen:   cm.HeaderLen,
		IndexLen:    cm.IndexLen,
		Server:      server,
		Tier:        meta.TierCold,
		Downsampled: true,
	}
	_, dropped, ok := cp.ms.ReplaceChunks([]meta.ChunkInfo{out}, ins)
	if !ok {
		// Lost a race with retention: some input vanished from metadata.
		// Abandon the output file; nothing was swapped.
		cp.fs.Delete(path)
		return nil
	}
	cp.m.Runs.Inc()
	cp.m.InputChunks.Add(int64(len(used)))
	cp.m.InputBytes.Add(inBytes)
	cp.m.OutputBytes.Add(cm.Size)
	cp.retire(dropped)
	return nil
}

// growRegion extends r to cover tuple t; with have false it starts a
// fresh region at t's point.
func growRegion(r model.Region, have bool, t model.Tuple) model.Region {
	if !have {
		return model.Region{
			Keys:  model.KeyRange{Lo: t.Key, Hi: t.Key},
			Times: model.TimeRange{Lo: t.Time, Hi: t.Time},
		}
	}
	if t.Key < r.Keys.Lo {
		r.Keys.Lo = t.Key
	}
	if t.Key > r.Keys.Hi {
		r.Keys.Hi = t.Key
	}
	if t.Time < r.Times.Lo {
		r.Times.Lo = t.Time
	}
	if t.Time > r.Times.Hi {
		r.Times.Hi = t.Time
	}
	return r
}

func unionRegion(a, b model.Region) model.Region {
	if b.Keys.Lo < a.Keys.Lo {
		a.Keys.Lo = b.Keys.Lo
	}
	if b.Keys.Hi > a.Keys.Hi {
		a.Keys.Hi = b.Keys.Hi
	}
	if b.Times.Lo < a.Times.Lo {
		a.Times.Lo = b.Times.Lo
	}
	if b.Times.Hi > a.Times.Hi {
		a.Times.Hi = b.Times.Hi
	}
	return a
}
