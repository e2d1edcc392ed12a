package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"waterwheel"
	"waterwheel/internal/chunk"
	"waterwheel/internal/core"
	"waterwheel/internal/dispatcher"
	"waterwheel/internal/ingest"
	"waterwheel/internal/meta"
	"waterwheel/internal/model"
	"waterwheel/internal/rtree"
	"waterwheel/internal/wal"
)

// Leg sample sizes: enough calls for a steady median, few enough that all
// legs together stay within a few seconds.
const (
	legBatches = 400
	legQueries = 200
	legChunks  = 8
	legSingles = 20_000
)

// legGroup times the calls of one layer's leg, one span per call under a
// leg.<layer> span.
type legGroup struct {
	log   *spanLog
	at    int // index of the group's span in the log
	calls map[string][]float64
}

func (b *bench) legGroup(layer string) *legGroup {
	log := b.rec.log(clientConns)
	now := b.rec.since(time.Now())
	log.add(b.rec.root, "leg."+layer, "", 0, 0, now, now, nil)
	return &legGroup{log: log, at: len(log.spans) - 1, calls: map[string][]float64{}}
}

// call times fn and returns its duration in nanoseconds.
func (g *legGroup) call(name string, fn func()) float64 {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	r := g.log.r
	g.log.add(g.log.spans[g.at].ID, name, "", 0, 0, r.since(t0), r.since(t1), nil)
	g.log.spans[g.at].End = r.since(t1)
	ns := float64(t1.Sub(t0).Nanoseconds())
	g.calls[name] = append(g.calls[name], ns)
	return ns
}

func (g *legGroup) median(name string) float64 { return median(g.calls[name]) }

func (g *legGroup) total(name string) float64 {
	var s float64
	for _, v := range g.calls[name] {
		s += v
	}
	return s
}

// nullWriter discards chunk writes, so the ingest leg times the server and
// not the file system.
type nullWriter struct{}

func (nullWriter) Write(string, []byte) error { return nil }

// legs replays a sample of the run's own inputs — its first batches, its
// first queries, the chunk files it produced — through each layer's
// exported functions, single-threaded, one span per call. It runs after the
// run's final count check, so what it inserts is not accounted.
func (b *bench) legs(put putFunc, sys *system, hist *stream) {
	cl := sys.db.Cluster()
	span := b.pool.span
	// -scale shrinks the samples too, down to a handful of calls.
	sized := func(n int) int {
		if v := int(float64(n) * b.cfg.scale); v < n {
			n = v
		}
		if n < 4 {
			n = 4
		}
		return n
	}
	nBatches, nQueries, nSingles := sized(legBatches), sized(legQueries), sized(legSingles)

	batches := make([][]model.Tuple, nBatches)
	for i := range batches {
		batches[i] = make([]model.Tuple, batchSize)
		hist.fill(batches[i], int64(i)*batchSize)
	}
	tuples := float64(nBatches * batchSize)
	ops := genQueryOps(span, b.cfg.seed*31, nQueries*2, hist.base, hist.base+sys.histN)
	var ranges []queryOp
	for _, op := range ops {
		if !op.agg && len(ranges) < nQueries {
			ranges = append(ranges, op)
		}
	}
	chunks := cl.Metadata().ChunksFor(model.FullRegion())
	sort.Slice(chunks, func(i, j int) bool { return chunks[i].ID < chunks[j].ID })

	// loadgen: what stamping a batch out of the pool costs the generator.
	g := b.legGroup("loadgen")
	buf := make([]model.Tuple, batchSize)
	for i := 0; i < nBatches; i++ {
		g.call("fill", func() { hist.fill(buf, int64(i)*batchSize) })
	}
	put("loadgen.gen_ns_per_tuple", (g.total("fill")+float64(b.pool.genNanos)*tuples/poolSize)/tuples)

	// model
	g = b.legGroup("model")
	var enc []byte
	encoded := make([][]byte, len(batches))
	for i, bt := range batches {
		g.call("AppendTuples", func() { enc = model.AppendTuples(enc[:0], bt) })
		encoded[i] = append([]byte(nil), enc...)
	}
	put("model.encode_ns_per_tuple", g.total("AppendTuples")/tuples)
	for _, e := range encoded {
		g.call("DecodeTuples", func() {
			if _, err := model.DecodeTuples(e); err != nil {
				b.fails.add("error", "leg decode: "+err.Error())
			}
		})
	}
	put("model.decode_ns_per_tuple", g.total("DecodeTuples")/tuples)

	// net: the same batches and queries through the client and through the
	// DB directly; the difference is framing, the socket and the codecs.
	g = b.legGroup("net")
	for i, bt := range batches {
		alternate(i, func() {
			g.call("DB.InsertBatch", func() {
				if err := sys.db.InsertBatch(bt); err != nil {
					b.fails.insert(err)
				}
			})
		}, func() {
			g.call("Client.InsertBatch", func() {
				if err := sys.cl[0].InsertBatch(bt); err != nil {
					b.fails.insert(err)
				}
			})
		})
	}
	put("net.insert_overhead_us", (g.median("Client.InsertBatch")-g.median("DB.InsertBatch"))/1e3)
	for i := range ranges {
		q := waterwheel.Query{Keys: ranges[i].region.Keys, Times: ranges[i].region.Times}
		alternate(i, func() {
			g.call("DB.Query", func() {
				if _, err := sys.db.Query(q); err != nil {
					b.fails.add("error", "leg query: "+err.Error())
				}
			})
		}, func() {
			g.call("Client.Query", func() {
				if _, err := sys.cl[0].Query(q); err != nil {
					b.fails.add("error", "leg query: "+err.Error())
				}
			})
		})
	}
	put("net.query_overhead_us", (g.median("Client.Query")-g.median("DB.Query"))/1e3)

	// model.MergeSortedTuples over the run's batches, each sorted and dealt
	// into four sorted parts as four subqueries would return them.
	g = b.legGroup("model.merge")
	for _, bt := range batches {
		sorted := append([]model.Tuple(nil), bt...)
		sort.Slice(sorted, func(i, j int) bool { return model.CompareTuples(&sorted[i], &sorted[j]) < 0 })
		parts := make([][]model.Tuple, 4)
		for i := range sorted {
			parts[i%4] = append(parts[i%4], sorted[i])
		}
		g.call("MergeSortedTuples", func() { model.MergeSortedTuples(parts, 0) })
	}
	put("model.merge_ns_per_tuple", g.total("MergeSortedTuples")/tuples)

	// dispatcher: the deployment's schema, a sink that drops everything.
	g = b.legGroup("dispatcher")
	null := dispatcher.SinkFunc(func(int, model.Tuple) error { return nil })
	disp := dispatcher.New(cl.Metadata().Schema(), null, dispatcher.SamplerConfig{Seed: b.cfg.seed})
	for _, bt := range batches {
		g.call("DispatchBatch", func() { disp.DispatchBatch(bt) })
	}
	put("dispatcher.dispatch_batch_ns_per_tuple", g.total("DispatchBatch")/tuples)
	g.call("Dispatch", func() {
		for i := 0; i < nSingles; i++ {
			disp.Dispatch(batches[i/batchSize%nBatches][i%batchSize])
		}
	})
	put("dispatcher.dispatch_ns_per_tuple", g.total("Dispatch")/float64(nSingles))

	b.legWAL(put, sys, encoded, nSingles)
	b.legIngestCore(put, batches, ranges, span, nSingles)
	b.legChunks(put, sys, chunks, ranges)
	b.legMeta(put, sys, chunks, ranges)
}

// alternate runs the two sides of a paired leg, swapping which goes first
// from one pair to the next so that neither always finds the caches warm.
func alternate(i int, direct, remote func()) {
	if i%2 == 0 {
		direct()
		remote()
	} else {
		remote()
		direct()
	}
}

// records splits an encoded batch into its per-tuple records, as the
// cluster's WAL sink frames them.
func records(encoded []byte) [][]byte {
	var out [][]byte
	for len(encoded) > 0 {
		_, n, err := model.DecodeTuple(encoded)
		if err != nil {
			break
		}
		out = append(out, encoded[:n:n])
		encoded = encoded[n:]
	}
	return out
}

func (b *bench) legWAL(put putFunc, sys *system, encoded [][]byte, nSingles int) {
	g := b.legGroup("wal")
	datas := make([][][]byte, len(encoded))
	for i := range encoded {
		datas[i] = records(encoded[i])
	}
	open := func(name string, d wal.Durability) *wal.Partition {
		p, err := wal.OpenPartition(filepath.Join(sys.dir, name), wal.Config{Durability: d})
		if err != nil {
			b.fails.add("error", "leg wal: "+err.Error())
			return nil
		}
		return p
	}
	p := open("leg-write.wal", wal.DurabilityAckOnWrite)
	if p == nil {
		return
	}
	for _, d := range datas {
		g.call("AppendBatch", func() {
			if _, err := p.AppendBatch(d); err != nil {
				b.fails.add("error", "leg wal append: "+err.Error())
			}
		})
	}
	put("wal.append_batch_ns_per_tuple", g.total("AppendBatch")/float64(len(datas)*batchSize))
	g.call("Append", func() {
		for i := 0; i < nSingles; i++ {
			p.Append(datas[i/batchSize%len(datas)][i%batchSize])
		}
	})
	put("wal.append_ns", g.total("Append")/float64(nSingles))
	read := 0
	for off := p.Base(); off < p.Next(); off += 2048 {
		g.call("Read", func() {
			recs, err := p.Read(off, 2048)
			if err != nil {
				b.fails.add("error", "leg wal read: "+err.Error())
			}
			read += len(recs)
		})
	}
	put.ratio("wal.read_ns_per_record", g.total("Read"), float64(read))
	p.Close()

	if p = open("leg-fsync.wal", wal.DurabilityAckOnFsync); p == nil {
		return
	}
	for _, d := range datas[:(len(datas)+3)/4] {
		g.call("AppendBatch.fsync", func() {
			if _, err := p.AppendBatch(d); err != nil {
				b.fails.add("error", "leg wal append: "+err.Error())
			}
		})
	}
	put.q("wal.append_fsync_us_p50", g.calls["AppendBatch.fsync"], 0.5, 1e3)
	p.Close()
}

// legIngestCore drives a fresh indexing server and a fresh template tree
// with the run's batches; the flush threshold is out of reach so no flusher
// competes with the timed calls.
func (b *bench) legIngestCore(put putFunc, batches [][]model.Tuple, ranges []queryOp, span model.KeyRange, nSingles int) {
	tuples := float64(len(batches) * batchSize)
	g := b.legGroup("ingest")
	srv := ingest.NewServer(ingest.Config{Keys: span, ChunkBytes: 1 << 40}, nullWriter{}, meta.NewServer(1), 0)
	for _, bt := range batches {
		g.call("Server.InsertBatch", func() { srv.InsertBatch(bt) })
	}
	put("ingest.insert_batch_ns_per_tuple", g.total("Server.InsertBatch")/tuples)
	// The server holds the stream's first positions; query windows over
	// them, with the run's key ranges.
	lo := batches[0][0].Time
	window := model.TimeRange{Lo: lo, Hi: lo + model.Timestamp(len(batches)*batchSize)}
	for i := range ranges {
		sq := &model.SubQuery{Region: model.Region{Keys: ranges[i].region.Keys, Times: window}, Chunk: model.MemChunk}
		g.call("Server.ExecuteSubQuery", func() { srv.ExecuteSubQuery(sq) })
	}
	put.q("ingest.mem_subquery_us", g.calls["Server.ExecuteSubQuery"], 0.5, 1e3)
	srv.Abort()

	g = b.legGroup("core")
	tree := core.NewTemplateTree(core.TemplateConfig{Keys: span, Leaves: 256})
	var snaps []*core.FlushSnapshot
	for i, bt := range batches {
		g.call("TemplateTree.InsertBatch", func() { tree.InsertBatch(bt) })
		if every := (len(batches) + 3) / 4; i%every == every-1 {
			if i+every >= len(batches) {
				// Keep the last fill for the range scans below.
				continue
			}
			g.call("TemplateTree.FlushReset", func() { snaps = append(snaps, tree.FlushReset()) })
		}
	}
	put("core.insert_batch_ns_per_tuple", g.total("TemplateTree.InsertBatch")/tuples)
	put.q("core.flush_reset_us", g.calls["TemplateTree.FlushReset"], 0.5, 1e3)
	results := 0
	for i := range ranges {
		g.call("TemplateTree.RangeCols", func() {
			tree.RangeCols(ranges[i].region.Keys, model.FullTimeRange(), nil, func(model.Key, model.Timestamp, []byte) bool {
				results++
				return true
			})
		})
	}
	put.ratio("core.range_cols_ns_per_result", g.total("TemplateTree.RangeCols"), float64(results))
	single := core.NewTemplateTree(core.TemplateConfig{Keys: span, Leaves: 256})
	g.call("TemplateTree.Insert", func() {
		for i := 0; i < nSingles; i++ {
			single.Insert(batches[i/batchSize%len(batches)][i%batchSize])
		}
	})
	put("core.insert_ns_per_tuple", g.total("TemplateTree.Insert")/float64(nSingles))

	// chunk.Build over the snapshots the tree leg produced.
	g = b.legGroup("chunk.build")
	built := 0.0
	for _, snap := range snaps {
		g.call("Build", func() {
			_, cm, err := chunk.Build(snap, chunk.BuildOptions{})
			if err != nil {
				b.fails.add("error", "leg chunk build: "+err.Error())
			}
			built += float64(cm.Count)
		})
	}
	put.ratio("chunk.build_ns_per_tuple", g.total("Build"), built)
}

// legChunks reads the chunk files the run produced and times the reader's
// steps on them, and the file system underneath.
func (b *bench) legChunks(put putFunc, sys *system, chunks []meta.ChunkInfo, ranges []queryOp) {
	fs := sys.db.Cluster().FS()
	if len(chunks) > legChunks {
		chunks = chunks[:legChunks]
	}
	g := b.legGroup("chunk")
	d := b.legGroup("dfs")
	var decoded, scanned, written float64
	cols := chunk.BorrowColumns()
	defer chunk.ReturnColumns(cols)
	for _, ci := range chunks {
		file, err := fs.Read(ci.Path)
		if err != nil {
			b.fails.add("error", "leg chunk read: "+err.Error())
			return
		}
		var h *chunk.Header
		g.call("ParseHeader", func() { h, err = chunk.ParseHeader(file[:ci.HeaderLen]) })
		if err != nil {
			b.fails.add("error", "leg chunk header: "+err.Error())
			return
		}
		for i := range ranges {
			g.call("SelectLeaves", func() { h.SelectLeaves(ranges[i].region.Keys, ranges[i].region.Times, true) })
		}
		for li, leaf := range h.Dir {
			if leaf.Count == 0 {
				continue
			}
			body := file[leaf.Offset : leaf.Offset+leaf.Length]
			d.call("ReadAt", func() {
				if _, _, err := fs.ReadAt(ci.Path, leaf.Offset, leaf.Length, 0); err != nil {
					b.fails.add("error", "leg dfs read: "+err.Error())
				}
			})
			g.call("DecodeColumns", func() {
				if err := h.DecodeColumns(li, body, cols); err != nil {
					b.fails.add("error", "leg chunk decode: "+err.Error())
				}
			})
			decoded += float64(leaf.Count)
			g.call("ScanLeafColsWith", func() {
				err := h.ScanLeafColsWith(cols, li, body, model.FullKeyRange(), model.FullTimeRange(), nil,
					func(model.Key, model.Timestamp, []byte) bool { return true })
				if err != nil {
					b.fails.add("error", "leg chunk scan: "+err.Error())
				}
			})
			scanned += float64(leaf.Count)
			var agg model.AggPartial
			g.call("FoldLeafAgg", func() { h.FoldLeafAgg(li, model.TimeRange{Lo: leaf.MinT, Hi: leaf.MaxT}, false, &agg) })
		}
		name := fmt.Sprintf("leg-%d.chunk", ci.ID)
		d.call("Write", func() {
			if err := fs.Write(name, file); err != nil {
				b.fails.add("error", "leg dfs write: "+err.Error())
			}
		})
		fs.Delete(name)
		written += float64(len(file))
	}
	put.ratio("dfs.write_mb_per_s", written/(1<<20), d.total("Write")/1e9)
	put.q("chunk.parse_header_us", g.calls["ParseHeader"], 0.5, 1e3)
	put.q("chunk.select_leaves_us", g.calls["SelectLeaves"], 0.5, 1e3)
	put.ratio("chunk.decode_columns_ns_per_tuple", g.total("DecodeColumns"), decoded)
	// ScanLeafColsWith decodes the columns again before it scans them.
	put.ratio("chunk.scan_leaf_ns_per_tuple", g.total("ScanLeafColsWith"), scanned)
	put.q("chunk.agg_fold_leaf_ns", g.calls["FoldLeafAgg"], 0.5, 1)
	put.q("dfs.read_at_us_p50", d.calls["ReadAt"], 0.5, 1e3)
}

// legMeta times the metadata server and the R-tree beneath it on the run's
// real chunk regions: a restored copy answers the planning calls, a fresh
// server and tree take the registrations.
func (b *bench) legMeta(put putFunc, sys *system, chunks []meta.ChunkInfo, ranges []queryOp) {
	ms := sys.db.Cluster().Metadata()
	put("meta.chunks", float64(ms.ChunkCount()))
	stats := sys.db.Stats()
	put.ratio("chunk.bytes_per_tuple", float64(stats.FlushBytes), float64(stats.Ingested-int64(stats.Buffered)))
	if len(chunks) == 0 {
		return
	}
	g := b.legGroup("meta")
	var snap []byte
	var err error
	for i := 0; i < 5; i++ {
		g.call("Snapshot", func() { snap, err = ms.Snapshot() })
	}
	if err != nil {
		b.fails.add("error", "leg meta snapshot: "+err.Error())
		return
	}
	put.q("meta.snapshot_ms", g.calls["Snapshot"], 0.5, 1e6)
	copyMS, err := meta.Restore(snap)
	if err != nil {
		b.fails.add("error", "leg meta restore: "+err.Error())
		return
	}
	for i := range ranges {
		g.call("ChunksForWithWatermark", func() { copyMS.ChunksForWithWatermark(ranges[i].region) })
	}
	put.q("meta.chunks_for_us", g.calls["ChunksForWithWatermark"], 0.5, 1e3)
	fresh := meta.NewServer(2)
	for _, ci := range chunks {
		ci.ID = 0
		g.call("RegisterChunks", func() { fresh.RegisterChunks([]meta.ChunkInfo{ci}) })
	}
	put.q("meta.register_chunks_us", g.calls["RegisterChunks"], 0.5, 1e3)

	g = b.legGroup("rtree")
	tree := rtree.New(0)
	for i, ci := range chunks {
		g.call("Insert", func() { tree.Insert(ci.Region, i) })
	}
	put.q("rtree.insert_us", g.calls["Insert"], 0.5, 1e3)
	for i := range ranges {
		g.call("Search", func() { tree.Search(ranges[i].region) })
	}
	put.q("rtree.search_us", g.calls["Search"], 0.5, 1e3)
}
