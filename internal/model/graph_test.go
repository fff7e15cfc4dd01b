package model

import (
	"testing"

	"repro/internal/units"
)

// diamond builds a diamond-shaped TT graph on two nodes:
//
//	  a(100µs, N0)
//	 /            \
//	b(200µs,N0)    m1(50µs) -> c(300µs, N1)
//	 \            /
//	  d(last, N0) <- m2(40µs) from c
//
// concretely: a->b (same node), a->m1->c, b->d, c->m2->d.
func diamond(t testing.TB) *System {
	t.Helper()
	b := NewBuilder("diamond", 2)
	g := b.Graph("g", 10*ms, 8*ms)
	a := b.Task(g, "a", 0, 100*us, SCS)
	bb := b.Task(g, "b", 0, 200*us, SCS)
	c := b.Task(g, "c", 1, 300*us, SCS)
	d := b.Task(g, "d", 0, 150*us, SCS)
	b.Edge(a, bb)
	b.Edge(bb, d)
	b.Message("m1", ST, 50*us, a, c, 0)
	b.Message("m2", ST, 40*us, c, d, 0)
	return b.MustBuild()
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	s := diamond(t)
	order, err := s.App.TopoOrder(0)
	if err != nil {
		t.Fatal(err)
	}
	pos := map[ActID]int{}
	for i, idd := range order {
		pos[idd] = i
	}
	for i := range s.App.Acts {
		a := &s.App.Acts[i]
		for _, succ := range a.Succs {
			if pos[a.ID] >= pos[succ] {
				t.Errorf("topo order violates %s -> %s", a.Name, s.App.Acts[succ].Name)
			}
		}
	}
	if len(order) != len(s.App.Acts) {
		t.Errorf("order covers %d of %d activities", len(order), len(s.App.Acts))
	}
}

func TestTopoOrderDetectsCycle(t *testing.T) {
	s := diamond(t)
	// Introduce a back edge d -> a by hand.
	d := id(t, s, "d")
	a := id(t, s, "a")
	s.App.Acts[d].Succs = append(s.App.Acts[d].Succs, a)
	s.App.Acts[a].Preds = append(s.App.Acts[a].Preds, d)
	if _, err := s.App.TopoOrder(0); err == nil {
		t.Fatal("cycle not detected")
	}
	if err := s.Validate(); err == nil {
		t.Fatal("Validate missed the cycle")
	}
}

func TestLongestPathTo(t *testing.T) {
	s := diamond(t)
	lp, err := s.App.LongestPathTo(0)
	if err != nil {
		t.Fatal(err)
	}
	// Paths to d: a+b+d = 450µs; a+m1+c+m2+d = 640µs. LP includes the
	// activity itself.
	if got, want := lp[id(t, s, "d")], 640*us; got != want {
		t.Errorf("LP(d) = %v, want %v", got, want)
	}
	if got, want := lp[id(t, s, "a")], 100*us; got != want {
		t.Errorf("LP(a) = %v, want %v", got, want)
	}
	// LP of message m2: a+m1+c+m2 = 490µs.
	if got, want := lp[id(t, s, "m2")], 490*us; got != want {
		t.Errorf("LP(m2) = %v, want %v", got, want)
	}
}

func TestRemainingPath(t *testing.T) {
	s := diamond(t)
	rp := make([]units.Duration, len(s.App.Acts))
	if err := s.App.RemainingPath(0, rp); err != nil {
		t.Fatal(err)
	}
	// From a: a+m1+c+m2+d = 640µs dominates a+b+d = 450µs.
	if got, want := rp[id(t, s, "a")], 640*us; got != want {
		t.Errorf("RP(a) = %v, want %v", got, want)
	}
	if got, want := rp[id(t, s, "d")], 150*us; got != want {
		t.Errorf("RP(d) = %v, want %v", got, want)
	}
}

func TestLongestPlusRemainingConsistency(t *testing.T) {
	// For any activity, LP + RP - C is the length of the longest
	// path through it; it can never exceed the graph's critical path
	// and the maximum over activities equals the critical path.
	s := diamond(t)
	lp, _ := s.App.LongestPathTo(0)
	rp := make([]units.Duration, len(s.App.Acts))
	_ = s.App.RemainingPath(0, rp)
	var critical units.Duration
	for _, idd := range s.App.Graphs[0].Acts {
		through := lp[idd] + rp[idd] - s.App.Act(idd).C
		if through > critical {
			critical = through
		}
	}
	if critical != 640*us {
		t.Errorf("critical path = %v, want 640µs", critical)
	}
	for _, idd := range s.App.Graphs[0].Acts {
		if through := lp[idd] + rp[idd] - s.App.Act(idd).C; through > critical {
			t.Errorf("path through %d (%v) exceeds critical path", idd, through)
		}
	}
}

func TestCriticality(t *testing.T) {
	b := NewBuilder("crit", 2)
	g := b.Graph("g", 10*ms, 5*ms)
	t1 := b.PrioTask(g, "t1", 0, 100*us, 1)
	t2 := b.PrioTask(g, "t2", 1, 100*us, 1)
	t3 := b.PrioTask(g, "t3", 0, 2000*us, 1)
	t4 := b.PrioTask(g, "t4", 1, 100*us, 1)
	mA := b.Message("mA", DYN, 50*us, t1, t2, 1)
	mB := b.Message("mB", DYN, 50*us, t3, t4, 1)
	s := b.MustBuild()
	cp, err := s.App.Criticality()
	if err != nil {
		t.Fatal(err)
	}
	// mB sits behind a 2 ms task, so its CP = D - LP is smaller
	// (more critical).
	if !(cp[mB] < cp[mA]) {
		t.Errorf("criticality: CP(mB)=%v should be < CP(mA)=%v", cp[mB], cp[mA])
	}
	if got, want := cp[mA], 5*ms-150*us; got != want {
		t.Errorf("CP(mA) = %v, want %v", got, want)
	}
}

func TestRootsAndSinks(t *testing.T) {
	s := diamond(t)
	roots := s.App.Roots(0)
	if len(roots) != 1 || s.App.Act(roots[0]).Name != "a" {
		t.Errorf("roots = %v", roots)
	}
	sinks := s.App.Sinks(0)
	if len(sinks) != 1 || s.App.Act(sinks[0]).Name != "d" {
		t.Errorf("sinks = %v", sinks)
	}
}
