package core

import "waterwheel/internal/model"

// Sub returns the counter deltas s - o.
func (s StatsSnapshot) Sub(o StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		Inserts:             s.Inserts - o.Inserts,
		Splits:              s.Splits - o.Splits,
		SplitNanos:          s.SplitNanos - o.SplitNanos,
		SortNanos:           s.SortNanos - o.SortNanos,
		BuildNanos:          s.BuildNanos - o.BuildNanos,
		TemplateUpdates:     s.TemplateUpdates - o.TemplateUpdates,
		TemplateUpdateNanos: s.TemplateUpdateNanos - o.TemplateUpdateNanos,
	}
}

// Keys returns the tree's nominal key interval.
func (t *TemplateTree) Keys() model.KeyRange {
	t.gate.RLock()
	defer t.gate.RUnlock()
	return t.cfg.Keys
}
