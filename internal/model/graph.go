package model

import (
	"fmt"

	"repro/internal/units"
)

// TopoOrder returns the activity ids of graph g in a topological order,
// or an error if the graph contains a cycle. The order is deterministic
// (Kahn's algorithm with a FIFO over insertion order) so that schedules
// and tests are reproducible.
func (app *Application) TopoOrder(g int) ([]ActID, error) {
	members := app.Graphs[g].Acts
	// indeg is indexed by ActID. Activities outside the graph start at
	// -1, so an edge leaving the graph never releases them.
	indeg := make([]int32, len(app.Acts))
	for i := range indeg {
		indeg[i] = -1
	}
	for _, id := range members {
		indeg[id] = int32(len(app.Act(id).Preds))
	}
	// order doubles as the FIFO queue: every activity is appended when
	// its last predecessor is taken and taken in append order.
	order := make([]ActID, 0, len(members))
	for _, id := range members {
		if indeg[id] == 0 {
			order = append(order, id)
		}
	}
	for head := 0; head < len(order); head++ {
		for _, s := range app.Act(order[head]).Succs {
			indeg[s]--
			if indeg[s] == 0 {
				order = append(order, s)
			}
		}
	}
	if len(order) != len(members) {
		return nil, fmt.Errorf("model: graph %q contains a cycle", app.Graphs[g].Name)
	}
	return order, nil
}

// LongestPathTo returns, for every activity of graph g, the length of
// the longest path from any root of the graph up to and including the
// activity itself (sum of C along the path). This is the LPm of Eq. (4)
// when applied to a message vertex.
func (app *Application) LongestPathTo(g int) (map[ActID]units.Duration, error) {
	order, err := app.TopoOrder(g)
	if err != nil {
		return nil, err
	}
	lp := make(map[ActID]units.Duration, len(order))
	for _, id := range order {
		a := app.Act(id)
		var best units.Duration
		for _, p := range a.Preds {
			if lp[p] > best {
				best = lp[p]
			}
		}
		lp[id] = units.SatAdd(best, a.C)
	}
	return lp, nil
}

// RemainingPath fills rem[id], for every activity id of graph g, with
// the length of the longest path from the activity (inclusive) to any
// sink. This is the (modified) critical-path metric used to order the
// ready list of the global scheduling algorithm (Fig. 2, per ref [12]).
// rem is indexed by ActID and spans len(app.Acts); entries of other
// graphs are left as they are.
func (app *Application) RemainingPath(g int, rem []units.Duration) error {
	order, err := app.TopoOrder(g)
	if err != nil {
		return err
	}
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		a := app.Act(id)
		var best units.Duration
		for _, s := range a.Succs {
			if rem[s] > best {
				best = rem[s]
			}
		}
		rem[id] = units.SatAdd(best, a.C)
	}
	return nil
}

// Criticality returns CPm = Dm - LPm (Eq. 4) for every DYN message in
// the application; smaller CP means higher criticality and, in the BBC
// FrameID assignment, a smaller FrameID.
func (app *Application) Criticality() (map[ActID]units.Duration, error) {
	cp := map[ActID]units.Duration{}
	for g := range app.Graphs {
		lp, err := app.LongestPathTo(g)
		if err != nil {
			return nil, err
		}
		for _, id := range app.Graphs[g].Acts {
			a := app.Act(id)
			if a.IsMessage() && a.Class == DYN {
				cp[id] = app.Deadline(id) - lp[id]
			}
		}
	}
	return cp, nil
}

// Roots returns the source vertices (no predecessors) of graph g.
func (app *Application) Roots(g int) []ActID {
	var out []ActID
	for _, id := range app.Graphs[g].Acts {
		if len(app.Act(id).Preds) == 0 {
			out = append(out, id)
		}
	}
	return out
}

// Sinks returns the sink vertices (no successors) of graph g.
func (app *Application) Sinks(g int) []ActID {
	var out []ActID
	for _, id := range app.Graphs[g].Acts {
		if len(app.Act(id).Succs) == 0 {
			out = append(out, id)
		}
	}
	return out
}
