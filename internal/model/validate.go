package model

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/units"
)

// MaxHyperPeriodActivations bounds the activity instances one
// hyper-period may hold: the sum over graphs of (H / period) times the
// graph's activity count. The schedule table and the simulator grow
// with it, so a system above the bound (a few coprime periods suffice)
// is rejected before any table is built rather than exhausting memory.
const MaxHyperPeriodActivations = 1 << 20

// Validate checks the structural invariants the algorithms rely on:
//
//   - at least one node and consistent node references;
//   - every graph is a non-empty DAG with positive period;
//   - activity names are unique;
//   - edges connect activities of the same graph and are symmetric
//     (p lists s as successor iff s lists p as predecessor);
//   - every message has exactly one sender and one receiver task,
//     mapped on *different* nodes (same-node communication is folded
//     into WCETs per Section 4);
//   - ST messages have an SCS sender (their transmission instant comes
//     from the schedule table, which requires a statically known
//     producer);
//   - C is positive for every activity;
//   - the hyper-period fits in int64 nanoseconds and holds at most
//     MaxHyperPeriodActivations activity instances.
//
// Validate returns all violations joined into a single error.
func (s *System) Validate() error {
	var errs []error
	add := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	if s.Platform.NumNodes <= 0 {
		add("platform has %d nodes", s.Platform.NumNodes)
	}
	if len(s.App.Graphs) == 0 {
		add("application has no task graphs")
	}

	names := map[string]bool{}
	owner := map[ActID]int{}
	for g, tg := range s.App.Graphs {
		if tg.Period <= 0 {
			add("graph %q: non-positive period %v", tg.Name, tg.Period)
		}
		if tg.Deadline <= 0 {
			add("graph %q: non-positive deadline %v", tg.Name, tg.Deadline)
		}
		if len(tg.Acts) == 0 {
			add("graph %q: empty", tg.Name)
		}
		for _, id := range tg.Acts {
			if int(id) < 0 || int(id) >= len(s.App.Acts) {
				add("graph %q: bad activity id %d", tg.Name, id)
				continue
			}
			owner[id] = g
		}
	}

	for i := range s.App.Acts {
		a := &s.App.Acts[i]
		if a.ID != ActID(i) {
			add("activity %q: ID %d does not match index %d", a.Name, a.ID, i)
		}
		if names[a.Name] {
			add("duplicate activity name %q", a.Name)
		}
		names[a.Name] = true
		if g, ok := owner[a.ID]; !ok {
			add("activity %q belongs to no graph", a.Name)
		} else if g != a.Graph {
			add("activity %q: Graph field %d but owned by graph %d", a.Name, a.Graph, g)
		}
		// Messages need strictly positive bus time; tasks may have a
		// zero WCET (useful for pure-communication scenarios such as
		// the paper's Fig. 3 and Fig. 4 examples).
		if a.IsMessage() && a.C <= 0 {
			add("message %q: non-positive C %v", a.Name, a.C)
		}
		if a.IsTask() && a.C < 0 {
			add("task %q: negative WCET %v", a.Name, a.C)
		}
		if a.Release < 0 {
			add("activity %q: negative release %v", a.Name, a.Release)
		}
		if a.Deadline < 0 {
			add("activity %q: negative deadline %v", a.Name, a.Deadline)
		}
		if int(a.Node) < 0 || int(a.Node) >= s.Platform.NumNodes {
			add("activity %q: node %d out of range", a.Name, a.Node)
		}

		for _, p := range a.Preds {
			if int(p) < 0 || int(p) >= len(s.App.Acts) {
				add("activity %q: bad predecessor id %d", a.Name, p)
				continue
			}
			pa := &s.App.Acts[p]
			if pa.Graph != a.Graph {
				add("edge %q->%q crosses graphs", pa.Name, a.Name)
			}
			if !contains(pa.Succs, a.ID) {
				add("edge %q->%q not symmetric", pa.Name, a.Name)
			}
		}
		for _, sc := range a.Succs {
			if int(sc) < 0 || int(sc) >= len(s.App.Acts) {
				add("activity %q: bad successor id %d", a.Name, sc)
			}
		}

		if a.IsTT() {
			// The schedule table needs statically known producers:
			// a time-triggered activity cannot be released by an
			// event-triggered one.
			for _, p := range a.Preds {
				if int(p) >= 0 && int(p) < len(s.App.Acts) && s.App.Acts[p].IsET() {
					add("TT activity %q depends on ET activity %q", a.Name, s.App.Acts[p].Name)
				}
			}
		}

		if a.IsMessage() {
			if len(a.Preds) != 1 || len(a.Succs) != 1 {
				add("message %q: must have exactly one sender and one receiver (have %d/%d)",
					a.Name, len(a.Preds), len(a.Succs))
				continue
			}
			snd := &s.App.Acts[a.Preds[0]]
			rcv := &s.App.Acts[a.Succs[0]]
			if !snd.IsTask() || !rcv.IsTask() {
				add("message %q: endpoints must be tasks", a.Name)
				continue
			}
			if snd.Node == rcv.Node {
				add("message %q: sender and receiver on same node %d", a.Name, snd.Node)
			}
			if a.Node != snd.Node {
				add("message %q: Node %d differs from sender node %d", a.Name, a.Node, snd.Node)
			}
			if a.Dst != rcv.Node {
				add("message %q: Dst %d differs from receiver node %d", a.Name, a.Dst, rcv.Node)
			}
			if a.Class == ST && snd.Policy != SCS {
				add("ST message %q: sender %q is not SCS", a.Name, snd.Name)
			}
		}
	}

	for g := range s.App.Graphs {
		if _, err := s.App.TopoOrder(g); err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) == 0 {
		if err := s.App.checkHyperPeriod(); err != nil {
			errs = append(errs, err)
		}
	}

	return errors.Join(errs...)
}

// checkHyperPeriod computes the hyper-period without the overflow
// panic of units.LCM and enforces MaxHyperPeriodActivations. Periods
// must already be known positive.
func (app *Application) checkHyperPeriod() error {
	var h int64 = 1
	for _, g := range app.Graphs {
		p := int64(g.Period)
		q := h / units.GCD(h, p)
		if q > math.MaxInt64/p {
			return errors.New("hyper-period (LCM of the graph periods) overflows int64 nanoseconds")
		}
		h = q * p
	}
	var n int64
	for _, g := range app.Graphs {
		// Clamping the instance count keeps the product from
		// overflowing; one clamped graph already exceeds the bound.
		inst := min(h/int64(g.Period), MaxHyperPeriodActivations+1)
		n += inst * int64(len(g.Acts))
		if n > MaxHyperPeriodActivations {
			return fmt.Errorf("hyper-period %v holds more than %d activity instances",
				units.Duration(h), MaxHyperPeriodActivations)
		}
	}
	return nil
}

func contains(ids []ActID, id ActID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
