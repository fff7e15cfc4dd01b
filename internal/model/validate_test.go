package model

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/units"
)

// breakSystem applies a mutation to a valid system and asserts that
// Validate rejects it with a message containing want.
func breakSystem(t *testing.T, want string, mutate func(*System)) {
	t.Helper()
	s := twoNode(t)
	mutate(s)
	err := s.Validate()
	if err == nil {
		t.Fatalf("mutation %q accepted", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}

func TestValidateRejectsNoNodes(t *testing.T) {
	breakSystem(t, "nodes", func(s *System) { s.Platform.NumNodes = 0 })
}

func TestValidateRejectsNonPositivePeriod(t *testing.T) {
	breakSystem(t, "period", func(s *System) { s.App.Graphs[0].Period = 0 })
}

func TestValidateRejectsNonPositiveGraphDeadline(t *testing.T) {
	breakSystem(t, "deadline", func(s *System) { s.App.Graphs[0].Deadline = -1 })
}

func TestValidateRejectsBadNode(t *testing.T) {
	breakSystem(t, "out of range", func(s *System) { s.App.Acts[0].Node = 7 })
}

func TestValidateRejectsNonPositiveMessageTime(t *testing.T) {
	breakSystem(t, "non-positive C", func(s *System) {
		for i := range s.App.Acts {
			if s.App.Acts[i].IsMessage() {
				s.App.Acts[i].C = 0
				return
			}
		}
	})
}

func TestValidateAcceptsZeroWCETTask(t *testing.T) {
	s := twoNode(t)
	s.App.Acts[0].C = 0
	if err := s.Validate(); err != nil {
		t.Fatalf("zero-WCET task rejected: %v", err)
	}
}

func TestValidateRejectsNegativeWCET(t *testing.T) {
	breakSystem(t, "negative WCET", func(s *System) { s.App.Acts[0].C = -1 })
}

func TestValidateRejectsAsymmetricEdge(t *testing.T) {
	breakSystem(t, "not symmetric", func(s *System) {
		// cons lists prod as predecessor without the reverse.
		prod := ActID(0)
		for i := range s.App.Acts {
			if s.App.Acts[i].Name == "cons" {
				s.App.Acts[i].Preds = append(s.App.Acts[i].Preds, prod)
			}
		}
	})
}

func TestValidateRejectsSameNodeMessage(t *testing.T) {
	breakSystem(t, "same node", func(s *System) {
		// Move the receiver onto the sender's node.
		for i := range s.App.Acts {
			if s.App.Acts[i].Name == "cons" {
				s.App.Acts[i].Node = 0
			}
			if s.App.Acts[i].Name == "m_st" {
				s.App.Acts[i].Dst = 0
			}
		}
	})
}

func TestValidateRejectsSTWithFPSSender(t *testing.T) {
	breakSystem(t, "is not SCS", func(s *System) {
		for i := range s.App.Acts {
			if s.App.Acts[i].Name == "prod" {
				s.App.Acts[i].Policy = FPS
			}
		}
	})
}

func TestValidateRejectsTTAfterET(t *testing.T) {
	// An SCS task fed by a DYN message has no statically known
	// release: the schedule table cannot host it.
	b := NewBuilder("ttafteret", 2)
	g := b.Graph("g", 10*ms, 10*ms)
	e := b.PrioTask(g, "e", 0, 100*us, 1)
	scs := b.Task(g, "s", 1, 100*us, SCS)
	b.Message("m", DYN, 50*us, e, scs, 1)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "depends on ET") {
		t.Fatalf("TT-after-ET accepted: %v", err)
	}
}

func TestValidateRejectsDanglingMessage(t *testing.T) {
	breakSystem(t, "exactly one sender", func(s *System) {
		for i := range s.App.Acts {
			if s.App.Acts[i].Name == "m_st" {
				s.App.Acts[i].Preds = nil
			}
			if s.App.Acts[i].Name == "prod" {
				s.App.Acts[i].Succs = nil
			}
		}
	})
}

func TestValidateRejectsWrongMessageNodeCache(t *testing.T) {
	breakSystem(t, "differs from sender node", func(s *System) {
		for i := range s.App.Acts {
			if s.App.Acts[i].Name == "m_st" {
				s.App.Acts[i].Node = 1
				s.App.Acts[i].Dst = 0
			}
		}
	})
}

func TestValidateRejectsEmptyGraph(t *testing.T) {
	s := twoNode(t)
	s.App.Graphs = append(s.App.Graphs, TaskGraph{Name: "empty", Period: ms, Deadline: ms})
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("empty graph accepted: %v", err)
	}
}

func TestValidateRejectsNegativeRelease(t *testing.T) {
	breakSystem(t, "negative release", func(s *System) { s.App.Acts[0].Release = -1 })
}

func TestValidateAggregatesAllViolations(t *testing.T) {
	s := twoNode(t)
	s.Platform.NumNodes = 0
	s.App.Graphs[0].Period = 0
	err := s.Validate()
	if err == nil {
		t.Fatal("invalid system accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "nodes") || !strings.Contains(msg, "period") {
		t.Errorf("expected both violations in %q", msg)
	}
}

// periodSystem builds one single-task graph per period (deadline =
// period) on a 2-node platform, plus extra tasks in the last graph.
func periodSystem(extra int, periods ...units.Duration) (*System, error) {
	b := NewBuilder("periods", 2)
	var g int
	for i, p := range periods {
		g = b.Graph(fmt.Sprintf("g%d", i), p, p)
		b.Task(g, fmt.Sprintf("t%d", i), NodeID(i%2), 10*us, SCS)
	}
	for i := 0; i < extra; i++ {
		b.Task(g, fmt.Sprintf("x%d", i), 0, 10*us, SCS)
	}
	return b.Build()
}

// TestValidateRejectsHyperPeriodOverflow: four coprime ~10 ms periods
// have an LCM beyond int64 nanoseconds; validation must say so instead
// of the hyper-period computation panicking later.
func TestValidateRejectsHyperPeriodOverflow(t *testing.T) {
	_, err := periodSystem(0, 9973*us, 9967*us, 9949*us, 9941*us)
	if err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("overflowing hyper-period accepted: %v", err)
	}
}

// TestValidateRejectsHugeHyperPeriod: three coprime periods fit in
// int64 but put ~10^8 instances of each graph in the hyper-period.
func TestValidateRejectsHugeHyperPeriod(t *testing.T) {
	_, err := periodSystem(0, 9973*us, 9967*us, 9949*us)
	if err == nil || !strings.Contains(err.Error(), "activity instances") {
		t.Fatalf("oversized hyper-period accepted: %v", err)
	}
}

// TestValidateHyperPeriodBoundIsInclusive: exactly
// MaxHyperPeriodActivations instances pass, one more fails.
func TestValidateHyperPeriodBoundIsInclusive(t *testing.T) {
	long := units.Duration(MaxHyperPeriodActivations-1) * ms
	if _, err := periodSystem(0, ms, long); err != nil {
		t.Fatalf("system at the bound rejected: %v", err)
	}
	if _, err := periodSystem(1, ms, long); err == nil || !strings.Contains(err.Error(), "activity instances") {
		t.Fatalf("system one instance over the bound accepted: %v", err)
	}
}
