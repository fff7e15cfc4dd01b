// Package sched implements the global scheduling algorithm of Fig. 2:
// a list scheduler that builds the static schedule table (start times
// for SCS tasks, slot assignments for ST messages) over the application
// hyper-period, ordering the ready list by a modified critical-path
// metric (ref [12]) and — optionally — placing each SCS task where the
// holistic analysis reports the least damage to FPS tasks and DYN
// messages (schedule_TT_task, Fig. 2 lines 10-12).
package sched

import (
	"fmt"
	"math"

	"repro/internal/analysis"
	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/schedule"
	"repro/internal/units"
)

// Options tune the scheduler.
type Options struct {
	// PlacementCandidates is the number of alternative start times
	// evaluated for each SCS task. 1 means plain first-fit (no
	// holistic evaluation); larger values implement Fig. 2 line 11
	// by running the analysis for each candidate gap and keeping the
	// cheapest. The paper's approach corresponds to values > 1; the
	// experiments default to 1 for the outer optimisation loops and
	// use 3 for the final configuration.
	PlacementCandidates int
	// Analysis options used for candidate evaluation and the final
	// run.
	Analysis analysis.Options
}

// DefaultOptions returns first-fit placement with default analysis.
func DefaultOptions() Options {
	return Options{PlacementCandidates: 1, Analysis: analysis.DefaultOptions()}
}

// Build runs the global scheduling algorithm for the given bus
// configuration: it constructs the static schedule table for every
// instance of every TT activity inside the hyper-period and then runs
// the holistic analysis once over the completed table. Scheduling
// failures (an ST message that finds no slot) are reported as an
// error; an unschedulable-but-constructible system is NOT an error —
// the cost function of the returned result captures it.
func Build(sys *model.System, cfg *flexray.Config, opts Options) (*schedule.Table, *analysis.Result, error) {
	table, err := BuildTable(sys, cfg, opts)
	if err != nil {
		return nil, nil, err
	}
	res := analysis.New(sys, cfg, table, opts.Analysis).Run()
	return table, res, nil
}

// BuildTable runs the table-construction part of the global scheduling
// algorithm without the final holistic analysis. Callers that hold a
// reusable analysis session (core.Session, the campaign engine workers)
// use it to bind their own analyzer to the finished table; Build is
// BuildTable plus one fresh analysis. It is NewPlan(sys).Build(cfg,
// opts); callers that build many tables for one system keep the Plan.
//
// With PlacementCandidates <= 1 (plain first-fit) the resulting table
// depends only on the slot geometry — static slot length, count,
// owners, and the dynamic segment length — never on the FrameID
// assignment, which is what makes schedule-table reuse across FrameID
// moves sound.
func BuildTable(sys *model.System, cfg *flexray.Config, opts Options) (*schedule.Table, error) {
	var p Plan
	p.init(sys)
	return p.Build(cfg, opts)
}

// Plan is the part of table construction that depends on the system
// alone: the flat instance layout, the remaining critical paths (one
// topological sort per graph, for the plan's lifetime) and the TT
// predecessor counts. It owns the node and ready-heap buffers every
// Build refills, so building many tables for one system allocates
// little beyond the tables themselves. A Plan is not safe for
// concurrent use; core.Session keeps one per session.
type Plan struct {
	sys     *model.System
	horizon units.Duration
	// err is a system-level failure (a cyclic graph, an instance
	// count beyond int32); every Build reports it.
	err error

	// slots lays every instance of every TT activity out in one flat
	// slice: instance i of activity a lives at slots[a].off +
	// i*slots[a].stride, so successor lookup is arithmetic, not a map
	// probe.
	slots  []actSlot
	remain []units.Duration

	// nodes and heap are the per-build scratch: nodes spans every
	// instance, heap keeps the capacity the ready list grew to.
	nodes []node
	heap  []int32

	// trial is the analyzer of holistic placement, built on first use
	// for the analysis options trialOpts.
	trial     *analysis.Analyzer
	trialOpts analysis.Options
}

// NewPlan lays out table construction for sys.
func NewPlan(sys *model.System) *Plan {
	p := new(Plan)
	p.init(sys)
	return p
}

// init fills an empty plan; BuildTable keeps its one-shot plan off the
// heap this way.
func (p *Plan) init(sys *model.System) {
	app := &sys.App
	horizon := app.HyperPeriod()
	p.sys, p.horizon = sys, horizon
	p.slots = make([]actSlot, len(app.Acts))
	p.remain = make([]units.Duration, len(app.Acts))
	total := 0
	for g := range app.Graphs {
		tg := &app.Graphs[g]
		if err := app.RemainingPath(g, p.remain); err != nil {
			p.err = err
			return
		}
		n := int64(horizon / tg.Period)
		if n == 0 {
			n = 1
		}
		stride := 0
		for _, id := range tg.Acts {
			if app.Act(id).IsTT() {
				stride++
			}
		}
		if stride > 0 && n > int64(math.MaxInt32-total)/int64(stride) {
			p.err = fmt.Errorf("sched: more than %d activity instances in the hyper-period", math.MaxInt32)
			return
		}
		local := 0
		for _, id := range tg.Acts {
			a := app.Act(id)
			if !a.IsTT() {
				continue
			}
			var pend int32
			for _, q := range a.Preds {
				if app.Act(q).IsTT() {
					pend++
				}
			}
			p.slots[id] = actSlot{off: int32(total + local), stride: int32(stride), n: int32(n), pend: pend}
			local++
		}
		total += int(n) * stride
	}
	p.nodes = make([]node, total)
}

// Build constructs the schedule table for one bus configuration. The
// table is new and owned by the caller; the plan's scratch is reused by
// the next Build.
func (p *Plan) Build(cfg *flexray.Config, opts Options) (*schedule.Table, error) {
	if p.err != nil {
		return nil, p.err
	}
	app := &p.sys.App
	table := schedule.New(cfg, p.horizon)
	table.Reserve(app, func(id model.ActID) int { return int(p.slots[id].n) })

	nodes := p.nodes
	h := readyHeap{nodes: nodes, idx: p.heap[:0]}
	for g := range app.Graphs {
		tg := &app.Graphs[g]
		for _, id := range tg.Acts {
			sl := p.slots[id]
			if sl.stride == 0 {
				continue
			}
			release := app.Act(id).Release
			for inst := int32(0); inst < sl.n; inst++ {
				i := sl.off + inst*sl.stride
				nodes[i] = node{
					// graph instance release + own offset
					asap:     units.Time(int64(tg.Period) * int64(inst)).Add(release),
					remain:   p.remain[id],
					act:      id,
					inst:     inst,
					pendPred: sl.pend,
				}
				if sl.pend == 0 {
					h.push(i)
				}
			}
		}
	}

	finish := func(nd *node, f units.Time) {
		for _, s := range app.Act(nd.act).Succs {
			sl := p.slots[s]
			if sl.stride == 0 || nd.inst >= sl.n {
				continue
			}
			i := sl.off + nd.inst*sl.stride
			sn := &nodes[i]
			if f > sn.asap {
				sn.asap = f
			}
			sn.pendPred--
			if sn.pendPred == 0 {
				h.push(i)
			}
		}
	}

	// One resettable analyzer serves every placement-candidate trial:
	// the configuration stays fixed across trials, so its DYN
	// interference environments are built once for the whole schedule
	// construction.
	var trialAn *analysis.Analyzer
	if opts.PlacementCandidates > 1 {
		if p.trial == nil || p.trialOpts != opts.Analysis {
			p.trial, p.trialOpts = analysis.NewReusable(p.sys, opts.Analysis), opts.Analysis
		}
		trialAn = p.trial
	}

	var err error
	for len(h.idx) > 0 && err == nil {
		// Select the ready activity with the greatest remaining
		// critical path (Fig. 2 line 2); earliest ASAP breaks ties,
		// then id for determinism.
		nd := &nodes[h.pop()]
		a := app.Act(nd.act)

		if a.IsTask() {
			var start units.Time
			if start, err = placeTask(cfg, table, trialAn, nd.act, int(nd.inst), a, nd.asap, opts); err == nil {
				finish(nd, start.Add(a.C))
			}
		} else {
			var e schedule.MsgEntry
			if e, err = table.PlaceMessage(app, nd.act, int(nd.inst), nd.asap); err != nil {
				err = fmt.Errorf("sched: %w", err)
			} else {
				finish(nd, e.Delivery)
			}
		}
	}
	// Keep the capacity the ready list grew to for the next build.
	p.heap = h.idx[:0]
	if err != nil {
		return nil, err
	}
	return table, nil
}

// actSlot locates the instances of one activity in the flat node
// slice of a build: instance i lives at off + i*stride, for i < n.
// pend is the activity's number of TT predecessors. Non-TT activities
// keep the zero value (stride 0). NewPlan bounds every instance index
// by MaxInt32.
type actSlot struct {
	off, stride, n, pend int32
}

// node is one instance of a TT activity inside the hyper-period.
type node struct {
	asap     units.Time
	remain   units.Duration // critical-path priority
	act      model.ActID
	inst     int32
	pendPred int32 // unscheduled TT predecessors
}

// readyHeap is the ready list of the list scheduler: a binary min-heap
// of indices into nodes under the strict total order of before. A
// node's key is final once it is ready — asap only moves while
// predecessors are pending — so popping the heap yields exactly the
// node a full sort of the ready list would put first.
type readyHeap struct {
	nodes []node
	idx   []int32
}

// before orders ready nodes: greatest remaining critical path first,
// then earliest ASAP, then activity id and instance.
func (h *readyHeap) before(i, j int32) bool {
	a, b := &h.nodes[i], &h.nodes[j]
	if a.remain != b.remain {
		return a.remain > b.remain
	}
	if a.asap != b.asap {
		return a.asap < b.asap
	}
	if a.act != b.act {
		return a.act < b.act
	}
	return a.inst < b.inst
}

func (h *readyHeap) push(i int32) {
	h.idx = append(h.idx, i)
	c := len(h.idx) - 1
	for c > 0 {
		p := (c - 1) / 2
		if !h.before(h.idx[c], h.idx[p]) {
			break
		}
		h.idx[c], h.idx[p] = h.idx[p], h.idx[c]
		c = p
	}
}

func (h *readyHeap) pop() int32 {
	top := h.idx[0]
	last := len(h.idx) - 1
	h.idx[0] = h.idx[last]
	h.idx = h.idx[:last]
	p := 0
	for {
		c := 2*p + 1
		if c >= last {
			break
		}
		if r := c + 1; r < last && h.before(h.idx[r], h.idx[c]) {
			c = r
		}
		if !h.before(h.idx[c], h.idx[p]) {
			break
		}
		h.idx[c], h.idx[p] = h.idx[p], h.idx[c]
		p = c
	}
	return top
}

// placeTask implements schedule_TT_task: it finds candidate start
// times at or after the task's ASAP and keeps the one the holistic
// analysis likes best (or plain first-fit when only one candidate is
// requested). Candidate trials rebind the shared analyzer to each
// trial table; the configuration-derived analysis caches survive every
// rebind because cfg never changes within one build.
func placeTask(cfg *flexray.Config, table *schedule.Table, trialAn *analysis.Analyzer,
	act model.ActID, inst int, a *model.Activity, asap units.Time, opts Options) (units.Time, error) {

	k := opts.PlacementCandidates
	if k <= 1 {
		start := table.FirstGap(a.Node, asap, a.C)
		return start, table.PlaceTask(act, inst, a.Node, start, a.C)
	}

	cands := table.Gaps(a.Node, asap, a.C, k)
	if len(cands) == 0 {
		return 0, fmt.Errorf("sched: no gap for task %q on node %d", a.Name, a.Node)
	}
	bestIdx := 0
	bestCost := 0.0
	for i, start := range cands {
		trial := table.Clone()
		if err := trial.PlaceTask(act, inst, a.Node, start, a.C); err != nil {
			continue
		}
		trialAn.Reset(cfg, trial)
		res := trialAn.Run()
		if i == 0 || res.Cost < bestCost {
			bestIdx, bestCost = i, res.Cost
		}
	}
	start := cands[bestIdx]
	return start, table.PlaceTask(act, inst, a.Node, start, a.C)
}
