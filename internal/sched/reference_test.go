package sched_test

// This file retains the pre-heap table construction — the list
// scheduler that re-sorted its whole ready list on every pick and kept
// its nodes, and the table's per-node and per-activity state, in maps —
// as an executable reference specification. refBuildTable and refTable
// are verbatim ports of that code onto the public API, except that the
// remaining paths come from model's RemainingPath, which now fills an
// ActID-indexed slice instead of returning a map per graph. The
// differential test below drives both implementations over synthesised
// and case-study systems under perturbed bus configurations and
// requires identical tables, entry for entry, and identical error text
// where no table can be built.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/cruise"
	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/schedule"
	"repro/internal/synth"
	"repro/internal/units"
)

type refSlotKey struct {
	cycle int64
	slot  int
}

// refTable is the reference schedule table: the same entries as
// schedule.Table, with the bookkeeping in maps.
type refTable struct {
	Cfg     *flexray.Config
	Horizon units.Duration

	Tasks []schedule.TaskEntry
	Msgs  []schedule.MsgEntry

	nodeBusy map[model.NodeID][]schedule.Interval // sorted, non-overlapping
	slotUsed map[refSlotKey]units.Duration        // packed payload per slot instance
	taskAt   map[model.ActID][]int                // act -> indices into Tasks
	msgAt    map[model.ActID][]int                // act -> indices into Msgs
}

func newRefTable(cfg *flexray.Config, horizon units.Duration) *refTable {
	return &refTable{
		Cfg:      cfg,
		Horizon:  horizon,
		nodeBusy: map[model.NodeID][]schedule.Interval{},
		slotUsed: map[refSlotKey]units.Duration{},
		taskAt:   map[model.ActID][]int{},
		msgAt:    map[model.ActID][]int{},
	}
}

func (t *refTable) PlaceTask(act model.ActID, instance int, node model.NodeID, start units.Time, c units.Duration) error {
	iv := schedule.Interval{Start: start, End: start.Add(c)}
	busy := t.nodeBusy[node]
	i := sort.Search(len(busy), func(i int) bool { return busy[i].End > iv.Start })
	if i < len(busy) && busy[i].Start < iv.End {
		return fmt.Errorf("schedule: task %d overlaps busy interval [%v,%v) on node %d",
			act, busy[i].Start, busy[i].End, node)
	}
	t.nodeBusy[node] = append(busy[:i:i], append([]schedule.Interval{iv}, busy[i:]...)...)
	t.Tasks = append(t.Tasks, schedule.TaskEntry{Act: act, Instance: instance, Node: node, Start: iv.Start, End: iv.End})
	t.taskAt[act] = append(t.taskAt[act], len(t.Tasks)-1)
	return nil
}

func (t *refTable) FirstGap(node model.NodeID, earliest units.Time, c units.Duration) units.Time {
	start := earliest
	for _, iv := range t.nodeBusy[node] {
		if iv.End <= start {
			continue
		}
		if iv.Start >= start.Add(c) {
			break
		}
		start = iv.End
	}
	return start
}

func (t *refTable) Gaps(node model.NodeID, earliest units.Time, c units.Duration, max int) []units.Time {
	var out []units.Time
	start := earliest
	busy := t.nodeBusy[node]
	i := 0
	for len(out) < max {
		for i < len(busy) && busy[i].End <= start {
			i++
		}
		if i >= len(busy) {
			out = append(out, start)
			break
		}
		if busy[i].Start >= start.Add(c) {
			out = append(out, start)
			start = busy[i].End
			i++
			continue
		}
		start = busy[i].End
		i++
	}
	return out
}

func (t *refTable) PlaceMessage(app *model.Application, m model.ActID, instance int, ready units.Time) (schedule.MsgEntry, error) {
	a := app.Act(m)
	slots := t.Cfg.SlotsOfNode(a.Node)
	if len(slots) == 0 {
		return schedule.MsgEntry{}, fmt.Errorf("schedule: node %d of ST message %q owns no static slot", a.Node, a.Name)
	}
	if a.C > t.Cfg.StaticSlotLen {
		return schedule.MsgEntry{}, fmt.Errorf("schedule: ST message %q (%v) larger than slot (%v)", a.Name, a.C, t.Cfg.StaticSlotLen)
	}
	cy := t.Cfg.CycleOf(ready)
	if cy < 0 {
		cy = 0
	}
	maxCycle := cy + 4*(int64(units.CeilDiv(int64(t.Horizon), int64(t.Cfg.Cycle())))+1)
	for ; cy <= maxCycle; cy++ {
		for _, slot := range slots {
			start := t.Cfg.StaticSlotStart(cy, slot)
			if start < ready {
				continue
			}
			key := refSlotKey{cy, slot}
			used := t.slotUsed[key]
			if used+a.C > t.Cfg.StaticSlotLen {
				continue // frame full
			}
			e := schedule.MsgEntry{
				Act: m, Instance: instance, Cycle: cy, Slot: slot,
				Offset:   used,
				TxStart:  start.Add(used),
				Delivery: t.Cfg.StaticSlotEnd(cy, slot),
			}
			t.slotUsed[key] = used + a.C
			t.Msgs = append(t.Msgs, e)
			t.msgAt[m] = append(t.msgAt[m], len(t.Msgs)-1)
			return e, nil
		}
	}
	return schedule.MsgEntry{}, fmt.Errorf("schedule: no slot instance for ST message %q after %v", a.Name, ready)
}

func (t *refTable) SlotContent(cycle int64, slot int) []schedule.MsgEntry {
	var out []schedule.MsgEntry
	for _, e := range t.Msgs {
		if e.Cycle == cycle && e.Slot == slot {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Offset < out[j].Offset })
	return out
}

func (t *refTable) foldedBusy(node model.NodeID) []schedule.Interval {
	if t.Horizon <= 0 {
		return t.nodeBusy[node]
	}
	h := int64(t.Horizon)
	var folded []schedule.Interval
	for _, iv := range t.nodeBusy[node] {
		s, e := int64(iv.Start), int64(iv.End)
		for s < e {
			fs := ((s % h) + h) % h
			span := e - s
			if fs+span > h {
				span = h - fs
			}
			folded = append(folded, schedule.Interval{Start: units.Time(fs), End: units.Time(fs + span)})
			s += span
		}
	}
	sort.Slice(folded, func(i, j int) bool { return folded[i].Start < folded[j].Start })
	var merged []schedule.Interval
	for _, iv := range folded {
		if n := len(merged); n > 0 && iv.Start <= merged[n-1].End {
			if iv.End > merged[n-1].End {
				merged[n-1].End = iv.End
			}
			continue
		}
		merged = append(merged, iv)
	}
	return merged
}

func (t *refTable) Clone() *refTable {
	c := &refTable{
		Cfg:      t.Cfg,
		Horizon:  t.Horizon,
		Tasks:    append([]schedule.TaskEntry(nil), t.Tasks...),
		Msgs:     append([]schedule.MsgEntry(nil), t.Msgs...),
		nodeBusy: make(map[model.NodeID][]schedule.Interval, len(t.nodeBusy)),
		slotUsed: make(map[refSlotKey]units.Duration, len(t.slotUsed)),
		taskAt:   make(map[model.ActID][]int, len(t.taskAt)),
		msgAt:    make(map[model.ActID][]int, len(t.msgAt)),
	}
	for k, v := range t.nodeBusy {
		c.nodeBusy[k] = append([]schedule.Interval(nil), v...)
	}
	for k, v := range t.slotUsed {
		c.slotUsed[k] = v
	}
	for k, v := range t.taskAt {
		c.taskAt[k] = append([]int(nil), v...)
	}
	for k, v := range t.msgAt {
		c.msgAt[k] = append([]int(nil), v...)
	}
	return c
}

// analysisTable replays the reference table's entries into a
// schedule.Table, the only table type the analyzer reads. The replay
// is exact: tasks go back to their windows, and every message is
// offered its own slot instance first, which has the room it had.
func (t *refTable) analysisTable(app *model.Application) (*schedule.Table, error) {
	st := schedule.New(t.Cfg, t.Horizon)
	for _, e := range t.Tasks {
		if err := st.PlaceTask(e.Act, e.Instance, e.Node, e.Start, units.Duration(e.End-e.Start)); err != nil {
			return nil, err
		}
	}
	for _, e := range t.Msgs {
		got, err := st.PlaceMessage(app, e.Act, e.Instance, e.TxStart.Add(-e.Offset))
		if err != nil {
			return nil, err
		}
		if got != e {
			return nil, fmt.Errorf("replayed message %+v landed at %+v", e, got)
		}
	}
	return st, nil
}

type refInstKey struct {
	act  model.ActID
	inst int
}

// refBuildTable is the reference list scheduler: a map of nodes and a
// ready list re-sorted before every pick.
func refBuildTable(sys *model.System, cfg *flexray.Config, opts sched.Options) (*refTable, error) {
	app := &sys.App
	horizon := app.HyperPeriod()
	table := newRefTable(cfg, horizon)

	type node struct {
		key      refInstKey
		release  units.Time
		asap     units.Time
		remain   units.Duration
		pendPred int
	}
	nodes := map[refInstKey]*node{}
	var ready []*node

	rp := make([]units.Duration, len(app.Acts))
	for g := range app.Graphs {
		tg := &app.Graphs[g]
		if err := app.RemainingPath(g, rp); err != nil {
			return nil, err
		}
		n := int64(horizon / tg.Period)
		if n == 0 {
			n = 1
		}
		for inst := int64(0); inst < n; inst++ {
			base := units.Time(int64(tg.Period) * inst)
			for _, id := range tg.Acts {
				a := app.Act(id)
				if !a.IsTT() {
					continue
				}
				pend := 0
				for _, p := range a.Preds {
					if app.Act(p).IsTT() {
						pend++
					}
				}
				nd := &node{
					key:      refInstKey{id, int(inst)},
					release:  base.Add(a.Release),
					remain:   rp[id],
					pendPred: pend,
				}
				nd.asap = nd.release
				nodes[nd.key] = nd
				if pend == 0 {
					ready = append(ready, nd)
				}
			}
		}
	}

	finish := func(nd *node, f units.Time) {
		a := app.Act(nd.key.act)
		for _, s := range a.Succs {
			sa := app.Act(s)
			if !sa.IsTT() {
				continue
			}
			sk := refInstKey{s, nd.key.inst}
			sn, ok := nodes[sk]
			if !ok {
				continue
			}
			if f > sn.asap {
				sn.asap = f
			}
			sn.pendPred--
			if sn.pendPred == 0 {
				ready = append(ready, sn)
			}
		}
	}

	var trialAn *analysis.Analyzer
	if opts.PlacementCandidates > 1 {
		trialAn = analysis.NewReusable(sys, opts.Analysis)
	}

	for len(ready) > 0 {
		sort.Slice(ready, func(i, j int) bool {
			a, b := ready[i], ready[j]
			if a.remain != b.remain {
				return a.remain > b.remain
			}
			if a.asap != b.asap {
				return a.asap < b.asap
			}
			if a.key.act != b.key.act {
				return a.key.act < b.key.act
			}
			return a.key.inst < b.key.inst
		})
		nd := ready[0]
		ready = ready[1:]
		a := app.Act(nd.key.act)

		if a.IsTask() {
			start, err := refPlaceTask(sys, cfg, table, trialAn, nd.key, a, nd.asap, opts)
			if err != nil {
				return nil, err
			}
			finish(nd, start.Add(a.C))
		} else {
			e, err := table.PlaceMessage(app, nd.key.act, nd.key.inst, nd.asap)
			if err != nil {
				return nil, fmt.Errorf("sched: %w", err)
			}
			finish(nd, e.Delivery)
		}
	}
	return table, nil
}

func refPlaceTask(sys *model.System, cfg *flexray.Config, table *refTable, trialAn *analysis.Analyzer,
	key refInstKey, a *model.Activity, asap units.Time, opts sched.Options) (units.Time, error) {

	k := opts.PlacementCandidates
	if k <= 1 {
		start := table.FirstGap(a.Node, asap, a.C)
		return start, table.PlaceTask(key.act, key.inst, a.Node, start, a.C)
	}

	cands := table.Gaps(a.Node, asap, a.C, k)
	if len(cands) == 0 {
		return 0, fmt.Errorf("sched: no gap for task %q on node %d", a.Name, a.Node)
	}
	bestIdx := 0
	bestCost := 0.0
	for i, start := range cands {
		trial := table.Clone()
		if err := trial.PlaceTask(key.act, key.inst, a.Node, start, a.C); err != nil {
			continue
		}
		st, err := trial.analysisTable(&sys.App)
		if err != nil {
			return 0, err
		}
		trialAn.Reset(cfg, st)
		res := trialAn.Run()
		if i == 0 || res.Cost < bestCost {
			bestIdx, bestCost = i, res.Cost
		}
	}
	start := cands[bestIdx]
	return start, table.PlaceTask(key.act, key.inst, a.Node, start, a.C)
}

// perturbGeometry derives a configuration from base by seeded moves on
// the static segment: slot count, slot length and slot owners. Some
// outcomes leave an ST sender without a slot or a message longer than
// the slot, which exercises the error path.
func perturbGeometry(rng *rand.Rand, base *flexray.Config, nodes int) *flexray.Config {
	cfg := base.Clone()
	for n := 1 + rng.Intn(3); n > 0; n-- {
		switch rng.Intn(4) {
		case 0: // one slot more or less
			if rng.Intn(2) == 0 && cfg.NumStaticSlots > 1 {
				cfg.NumStaticSlots--
				cfg.StaticSlotOwner = cfg.StaticSlotOwner[:cfg.NumStaticSlots]
			} else {
				cfg.NumStaticSlots++
				cfg.StaticSlotOwner = append(cfg.StaticSlotOwner, model.NodeID(rng.Intn(nodes)))
			}
		case 1: // slot length scaled to 60-180%
			cfg.StaticSlotLen = cfg.StaticSlotLen * units.Duration(60+rng.Intn(121)) / 100
			if cfg.StaticSlotLen < 1 {
				cfg.StaticSlotLen = 1
			}
		case 2: // two owners swapped
			if len(cfg.StaticSlotOwner) > 1 {
				i, j := rng.Intn(len(cfg.StaticSlotOwner)), rng.Intn(len(cfg.StaticSlotOwner))
				cfg.StaticSlotOwner[i], cfg.StaticSlotOwner[j] = cfg.StaticSlotOwner[j], cfg.StaticSlotOwner[i]
			}
		case 3: // one slot handed to another node
			if len(cfg.StaticSlotOwner) > 0 {
				cfg.StaticSlotOwner[rng.Intn(len(cfg.StaticSlotOwner))] = model.NodeID(rng.Intn(nodes))
			}
		}
	}
	return cfg
}

// compareTables fails the test unless got and want hold the same
// schedule, queried through every read the analysis, the simulator and
// the exporters make.
func compareTables(t *testing.T, where string, sys *model.System, got *schedule.Table, want *refTable) {
	t.Helper()
	if !reflect.DeepEqual(got.Tasks, want.Tasks) {
		t.Fatalf("%s: Tasks differ:\nheap: %v\nref:  %v", where, got.Tasks, want.Tasks)
	}
	if !reflect.DeepEqual(got.Msgs, want.Msgs) {
		t.Fatalf("%s: Msgs differ:\nheap: %v\nref:  %v", where, got.Msgs, want.Msgs)
	}
	replay, err := want.analysisTable(&sys.App)
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	// One past the last node and activity reads the out-of-range path.
	for n := model.NodeID(0); n <= model.NodeID(sys.Platform.NumNodes); n++ {
		if g, w := got.Busy(n), want.nodeBusy[n]; !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: Busy(%d) = %v, ref %v", where, n, g, w)
		}
		av := got.Availability(n)
		folded := want.foldedBusy(n)
		bounds := []units.Time{0}
		var total units.Duration
		for _, iv := range folded {
			bounds = append(bounds, iv.Start)
			total += iv.Len()
		}
		if !reflect.DeepEqual(av.BusyBoundaries(), bounds) || av.TotalBusy() != total || av.Horizon() != want.Horizon {
			t.Fatalf("%s: Availability(%d) boundaries %v busy %v horizon %v, ref %v busy %v horizon %v",
				where, n, av.BusyBoundaries(), av.TotalBusy(), av.Horizon(), bounds, total, want.Horizon)
		}
		// The supply function itself: the same queries against one
		// computed afresh from the reference's busy intervals.
		fresh := replay.Availability(n)
		for _, iv := range folded {
			for _, x := range []units.Time{iv.Start - 1, iv.Start, iv.End, iv.End.Add(units.Duration(want.Horizon))} {
				if g, w := av.FreeIn(0, x), fresh.FreeIn(0, x); g != w {
					t.Fatalf("%s: Availability(%d).FreeIn(0, %v) = %v, ref %v", where, n, x, g, w)
				}
				if g, w := av.Advance(x, iv.Len()+1), fresh.Advance(x, iv.Len()+1); g != w {
					t.Fatalf("%s: Availability(%d).Advance(%v) = %v, ref %v", where, n, x, g, w)
				}
			}
		}
	}
	for id := model.ActID(0); id <= model.ActID(len(sys.App.Acts)); id++ {
		if g, w := got.TaskEntryIndices(id), want.taskAt[id]; !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: TaskEntryIndices(%d) = %v, ref %v", where, id, g, w)
		}
		if g, w := got.MsgEntryIndices(id), want.msgAt[id]; !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: MsgEntryIndices(%d) = %v, ref %v", where, id, g, w)
		}
	}
	for k, used := range want.slotUsed {
		content := got.SlotContent(k.cycle, k.slot)
		if w := want.SlotContent(k.cycle, k.slot); !reflect.DeepEqual(content, w) {
			t.Fatalf("%s: SlotContent(%d, %d) = %v, ref %v", where, k.cycle, k.slot, content, w)
		}
		var packed units.Duration
		for _, e := range content {
			packed += sys.App.Act(e.Act).C
		}
		if packed != used {
			t.Fatalf("%s: slot (%d, %d) packs %v, ref %v", where, k.cycle, k.slot, packed, used)
		}
	}
}

// TestBuildTableMatchesReference is the differential test of the
// heap-ordered, densely stored table construction against the retained
// sort-and-map reference: all-TT systems (the campaign-tt population),
// Fig. 7 style systems with DYN traffic and the cruise controller,
// under their BBC configurations and seeded perturbations of the
// static segment, with first-fit placement and with three holistic
// placement candidates (which runs Clone and the trial analyzer).
func TestBuildTableMatchesReference(t *testing.T) {
	type tc struct {
		name   string
		sys    func() (*model.System, error)
		trials int
	}
	var cases []tc
	tt := func(seed int64) synth.Params {
		p := synth.DefaultParams(7, seed)
		p.TTShare = 1.0
		p.BusUtilMin, p.BusUtilMax = 0.50, 0.70
		p.DeadlineFactor = 1.0
		return p
	}
	for i := int64(0); i < 3; i++ {
		p := tt(1000 + i)
		cases = append(cases, tc{fmt.Sprintf("tt-%d", i), func() (*model.System, error) { return synth.Generate(p) }, 12})
	}
	// Equal execution and communication times tie the remaining paths
	// of many activities, so the ASAP, id and instance tie-breaks pick.
	cases = append(cases, tc{"tt-ties", func() (*model.System, error) {
		sys, err := synth.Generate(tt(1003))
		if err != nil {
			return nil, err
		}
		for i := range sys.App.Acts {
			if a := &sys.App.Acts[i]; a.IsTask() {
				a.C = ms
			} else {
				a.C = 20 * us
			}
		}
		return sys, nil
	}, 12})
	for i := int64(0); i < 2; i++ {
		p := synth.DefaultParams(5, 42+i)
		p.TasksPerNode = 9
		p.TTShare = 0.34
		p.BusUtilMin, p.BusUtilMax = 0.30, 0.45
		p.DeadlineFactor = 2.0
		cases = append(cases, tc{fmt.Sprintf("fig7-%d", i), func() (*model.System, error) { return synth.Generate(p) }, 12})
	}
	cases = append(cases, tc{"cruise", cruise.System, 12})
	if testing.Short() {
		cases = cases[len(cases)-2:]
	}

	copts := core.DefaultOptions()
	copts.DYNGridCap = 8
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sys, err := c.sys()
			if err != nil {
				t.Fatal(err)
			}
			bbc, err := core.BBC(sys, copts)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(ci)*7919 + 1))
			cfgs := []*flexray.Config{bbc.Config}
			for i := 0; i < c.trials; i++ {
				cfgs = append(cfgs, perturbGeometry(rng, bbc.Config, sys.Platform.NumNodes))
			}
			built, failed := 0, 0
			for _, k := range []int{1, 3} {
				opts := sched.DefaultOptions()
				opts.PlacementCandidates = k
				for i, cfg := range cfgs {
					where := fmt.Sprintf("%s k=%d cfg %d", c.name, k, i)
					got, gerr := sched.BuildTable(sys, cfg, opts)
					want, werr := refBuildTable(sys, cfg, opts)
					if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
						t.Fatalf("%s: error %v, ref %v", where, gerr, werr)
					}
					if gerr != nil {
						failed++
						continue
					}
					built++
					compareTables(t, where, sys, got, want)
				}
			}
			if built == 0 {
				t.Fatalf("no configuration could be built (%d failed)", failed)
			}
			t.Logf("%d tables identical, %d identical errors", built, failed)
		})
	}
}

// TestPlanReuseMatchesFresh builds shuffled configurations, first-fit
// and holistic placement interleaved, through one long-lived Plan per
// system. Every table (or error) must equal both a fresh BuildTable and
// the retained reference scheduler, so nothing a build leaves in the
// plan's node, heap or trial-analyzer state leaks into the next one,
// including builds that fail half way.
func TestPlanReuseMatchesFresh(t *testing.T) {
	fig7 := synth.DefaultParams(5, 43)
	fig7.TasksPerNode = 9
	fig7.TTShare = 0.34
	fig7.BusUtilMin, fig7.BusUtilMax = 0.30, 0.45
	fig7.DeadlineFactor = 2.0
	for si, mk := range []func() (*model.System, error){
		cruise.System,
		func() (*model.System, error) { return synth.Generate(fig7) },
	} {
		sys, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		copts := core.DefaultOptions()
		copts.DYNGridCap = 8
		bbc, err := core.BBC(sys, copts)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(si) + 31))
		type build struct {
			cfg *flexray.Config
			k   int
		}
		var builds []build
		for i := 0; i < 30; i++ {
			cfg := bbc.Config
			if i > 0 {
				cfg = perturbGeometry(rng, bbc.Config, sys.Platform.NumNodes)
			}
			builds = append(builds, build{cfg, 1}, build{cfg, 3})
		}
		rng.Shuffle(len(builds), func(i, j int) { builds[i], builds[j] = builds[j], builds[i] })

		plan := sched.NewPlan(sys)
		built, failed := 0, 0
		for i, b := range builds {
			where := fmt.Sprintf("%s build %d (k=%d)", sys.Name, i, b.k)
			opts := sched.DefaultOptions()
			opts.PlacementCandidates = b.k
			got, gerr := plan.Build(b.cfg, opts)
			fresh, ferr := sched.BuildTable(sys, b.cfg, opts)
			want, werr := refBuildTable(sys, b.cfg, opts)
			if (gerr == nil) != (werr == nil) || (gerr == nil) != (ferr == nil) ||
				(gerr != nil && (gerr.Error() != werr.Error() || gerr.Error() != ferr.Error())) {
				t.Fatalf("%s: plan error %v, fresh %v, ref %v", where, gerr, ferr, werr)
			}
			if gerr != nil {
				failed++
				continue
			}
			built++
			if !reflect.DeepEqual(got.Tasks, fresh.Tasks) || !reflect.DeepEqual(got.Msgs, fresh.Msgs) {
				t.Fatalf("%s: plan table differs from a fresh build", where)
			}
			compareTables(t, where, sys, got, want)
		}
		if built < 20 || failed == 0 {
			t.Fatalf("%s: %d builds succeeded, %d failed; want both paths exercised", sys.Name, built, failed)
		}
		t.Logf("%s: %d tables identical, %d identical errors", sys.Name, built, failed)
	}
}
