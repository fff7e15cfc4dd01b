package analysis_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/units"
)

// crossGraphSystem builds three task graphs on two nodes whose jitters
// feed each other across graph boundaries: on each node, FPS tasks of
// later graphs preempt tasks of earlier ones, and every DYN message
// sees the lower-FrameID messages of the other graphs as lf(m)
// interference, or as hp(m) when it shares the FrameID. The fixpoint therefore needs several outer passes, and
// the response cores of later passes depend on jitters that moved in
// earlier ones.
func crossGraphSystem(t *testing.T) (*model.System, *flexray.Config) {
	t.Helper()
	const us = units.Microsecond
	c := 15 * us
	b := model.NewBuilder("cross-graph", 2)
	g0 := b.Graph("G0", 100*us, 400*us)
	g1 := b.Graph("G1", 100*us, 400*us)
	g2 := b.Graph("G2", 200*us, 800*us)
	s0 := b.Task(g0, "s0", 0, 10*us, model.SCS)
	a0 := b.PrioTask(g0, "a0", 0, c, 1)
	b.Edge(s0, a0)
	b0 := b.PrioTask(g0, "b0", 1, c, 7)
	b.Message("mA", model.DYN, 5*us, a0, b0, 1)
	a1 := b.PrioTask(g1, "a1", 1, c, 6)
	b1 := b.PrioTask(g1, "b1", 0, c, 4)
	b.Message("mB", model.DYN, 6*us, a1, b1, 1)
	a2 := b.PrioTask(g2, "a2", 0, c, 5)
	b2 := b.PrioTask(g2, "b2", 1, c, 8)
	c2 := b.PrioTask(g2, "c2", 0, c, 2)
	b.Message("mC", model.DYN, 4*us, a2, b2, 1)
	b.Message("mD", model.DYN, 3*us, b2, c2, 1)
	sys, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// mA and mC, both sent by node 0, share FrameID 1: mA is in
	// hp(mC).
	fids := map[model.ActID]int{}
	for name, fid := range map[string]int{"mA": 1, "mC": 1, "mB": 2, "mD": 3} {
		id, _ := b.Lookup(name)
		fids[id] = fid
	}
	return sys, &flexray.Config{
		StaticSlotLen:   8 * us,
		NumStaticSlots:  2,
		StaticSlotOwner: []model.NodeID{0, 1},
		MinislotLen:     us,
		NumMinislots:    14,
		FrameID:         fids,
	}
}

// TestIncrementalFixpointMatchesReference is the differential test of
// the dependency-stamped ET fixpoint: on a system whose jitters cross
// graphs, every Run of two long-lived analyzers (greedy and exact
// fill) under FrameID, minislot and policy perturbations must equal
// the retained reference analysis, which recomputes every response on
// every pass. The counters must show that the memo was exercised:
// several outer passes, and cores both recomputed and reused.
func TestIncrementalFixpointMatchesReference(t *testing.T) {
	sys, base := crossGraphSystem(t)
	dyn := sys.App.Messages(int(model.DYN))
	greedy := analysis.DefaultOptions()
	exact := greedy
	exact.ExactFill = true
	exact.FillNodeCap = 400
	ans := []*analysis.Analyzer{analysis.NewReusable(sys, greedy), analysis.NewReusable(sys, exact)}
	optsOf := []analysis.Options{greedy, exact}

	rng := rand.New(rand.NewSource(17))
	var total analysis.Stats
	multiPass := 0
	for trial := 0; trial < 120; trial++ {
		cfg := base
		if trial > 1 {
			cfg = perturbConfig(rng, base, dyn)
		}
		table, err := sched.BuildTable(sys, cfg, sched.DefaultOptions())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		k := trial % 2
		before := ans[k].Stats()
		ans[k].Reset(cfg, table)
		got := ans[k].Run()
		st := ans[k].Stats().Sub(before)
		total.Add(st)
		if want := refAnalyze(sys, cfg, table, optsOf[k]); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (exact=%v):\nmemo: %+v\nref:  %+v\nconfig: %+v", trial, k == 1, got, want, cfg)
		}
		if trial <= 1 && st.Passes < 3 {
			t.Errorf("base config (exact=%v) converged in %d outer passes, want >= 3: %+v", k == 1, st.Passes, st)
		}
		if st.Passes >= 3 {
			multiPass++
		}
	}
	if multiPass < 30 {
		t.Errorf("only %d of 120 runs took 3 or more outer passes", multiPass)
	}
	if total.CoresReused == 0 || total.CoresComputed == 0 || total.Eq3Iterations == 0 {
		t.Errorf("memo not exercised: %+v", total)
	}
	t.Logf("%+v, %d multi-pass runs", total, multiPass)
}
