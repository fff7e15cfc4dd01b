package schedule

import "maps"

// Clone deep-copies the table. The global scheduling algorithm clones
// tables to evaluate alternative placements of an SCS task against the
// holistic analysis before committing one (Fig. 2 line 11).
func (t *Table) Clone() *Table {
	return &Table{
		Cfg:      t.Cfg,
		Horizon:  t.Horizon,
		Tasks:    append([]TaskEntry(nil), t.Tasks...),
		Msgs:     append([]MsgEntry(nil), t.Msgs...),
		nodeBusy: cloneEach(t.nodeBusy),
		taskAt:   cloneEach(t.taskAt),
		msgAt:    cloneEach(t.msgAt),
		slotUsed: maps.Clone(t.slotUsed),
		// The availability memo is intentionally NOT shared: the
		// clone exists to be mutated, and clone-side invalidation
		// must never poison (or race with) the original's memo.
	}
}

// cloneEach deep-copies a slice of slices.
func cloneEach[T any](s [][]T) [][]T {
	if s == nil {
		return nil
	}
	out := make([][]T, len(s))
	for i, v := range s {
		out[i] = append([]T(nil), v...)
	}
	return out
}
