// Drain-safe chunk retirement: when retention drops a chunk, its metadata
// vanishes immediately (no new query can plan it) but the file must
// outlive every query planned before the drop — those queries hold
// subqueries that will still read it. The retirer evicts
// the chunk's cached bytes from every query server, then parks the file
// delete until the cluster's oldest active query is newer than the
// query horizon captured at drop time. A subquery that still loses the
// race (file deleted between metadata drop and its read) gets the typed
// queryexec.ErrRetired, which the coordinator resolves against current
// metadata instead of failing the query.
//
// The retirer waits on queries only: the drop's journal record is durable
// before retire is called, so no registry a crash can leave behind names a
// file it unlinks.
package cluster

import (
	"errors"
	"math"
	"sync"

	"waterwheel/internal/dfs"
	"waterwheel/internal/meta"
)

// retiredChunk is one dropped chunk awaiting file deletion.
type retiredChunk struct {
	info meta.ChunkInfo
	// horizon is the metadata query horizon captured after the drop: any
	// query that could have planned this chunk has ID <= horizon. The
	// file is deletable once every active query ID exceeds it.
	horizon uint64
}

// retirer defers chunk-file deletion until in-flight queries drain.
type retirer struct {
	c  *Cluster
	mu sync.Mutex
	q  []retiredChunk
}

func newRetirer(c *Cluster) *retirer { return &retirer{c: c} }

// retire takes ownership of dropped chunks: evicts their cached bytes
// from every query server, queues their files behind the current query
// horizon, and sweeps whatever is already deletable. Callers must have
// already removed the chunks from metadata, durably.
func (r *retirer) retire(infos []meta.ChunkInfo) {
	if len(infos) == 0 {
		return
	}
	for _, qs := range r.c.qsrv {
		for _, ci := range infos {
			qs.EvictChunk(ci.ID)
		}
	}
	horizon := r.c.ms.QueryHorizon()
	r.mu.Lock()
	for _, ci := range infos {
		r.q = append(r.q, retiredChunk{info: ci, horizon: horizon})
	}
	r.mu.Unlock()
	r.sweep()
}

// sweep deletes every queued file whose gating queries have completed.
func (r *retirer) sweep() { r.unlink(r.c.ms.OldestActiveQuery()) }

// drain deletes everything queued, regardless of query horizons. Only for
// shutdown, after query traffic has stopped.
func (r *retirer) drain() { r.unlink(math.MaxUint64) }

func (r *retirer) unlink(oldestQuery uint64) {
	r.mu.Lock()
	var doomed []retiredChunk
	kept := r.q[:0]
	for _, rc := range r.q {
		if rc.horizon < oldestQuery {
			doomed = append(doomed, rc)
		} else {
			kept = append(kept, rc)
		}
	}
	r.q = kept
	r.mu.Unlock()
	for _, rc := range doomed {
		// A failed unlink leaves the file listed; the next sweep tries again.
		if err := r.c.fs.Delete(rc.info.Path); err != nil && !errors.Is(err, dfs.ErrNotFound) {
			r.mu.Lock()
			r.q = append(r.q, rc)
			r.mu.Unlock()
		}
	}
}

// pending reports how many retired files await deletion (telemetry).
func (r *retirer) pending() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.q)
}
