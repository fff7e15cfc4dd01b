package schedule

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/units"
)

const (
	us = units.Microsecond
	ms = units.Millisecond
)

// cfg2 returns a 2-node configuration: slots of 100µs (slot1 N0, slot2
// N1), 10 minislots of 10µs, cycle 300µs.
func cfg2() *flexray.Config {
	return &flexray.Config{
		StaticSlotLen:   100 * us,
		NumStaticSlots:  2,
		StaticSlotOwner: []model.NodeID{0, 1},
		MinislotLen:     10 * us,
		NumMinislots:    10,
		FrameID:         map[model.ActID]int{},
		Policy:          flexray.LatestTxPerFrame,
	}
}

// msgSystem builds a system with `n` ST messages from node 0 to node 1,
// each of the given size, all ready at time zero.
func msgSystem(t testing.TB, n int, size units.Duration) *model.System {
	t.Helper()
	b := model.NewBuilder("msgs", 2)
	g := b.Graph("g", 10*ms, 10*ms)
	for i := 0; i < n; i++ {
		snd := b.Task(g, "s"+string(rune('a'+i)), 0, 0, model.SCS)
		rcv := b.PrioTask(g, "r"+string(rune('a'+i)), 1, 0, 1)
		b.Message("m"+string(rune('a'+i)), model.ST, size, snd, rcv, 0)
	}
	return b.MustBuild()
}

func TestPlaceTaskRejectsOverlap(t *testing.T) {
	tb := New(cfg2(), 10*ms)
	if err := tb.PlaceTask(0, 0, 0, 100, 50*us); err != nil {
		t.Fatal(err)
	}
	if err := tb.PlaceTask(1, 0, 0, units.Time(40*us), 20*us); err == nil {
		t.Fatal("overlapping reservation accepted")
	}
	// Adjacent is fine.
	if err := tb.PlaceTask(2, 0, 0, units.Time(50*us)+100, 10*us); err != nil {
		t.Fatalf("adjacent reservation rejected: %v", err)
	}
	// Other node is independent.
	if err := tb.PlaceTask(3, 0, 1, 100, 50*us); err != nil {
		t.Fatalf("other-node reservation rejected: %v", err)
	}
}

func TestFirstGapSkipsBusy(t *testing.T) {
	tb := New(cfg2(), 10*ms)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(tb.PlaceTask(0, 0, 0, units.Time(100*us), 100*us)) // [100,200)
	must(tb.PlaceTask(1, 0, 0, units.Time(250*us), 50*us))  // [250,300)

	if got := tb.FirstGap(0, 0, 50*us); got != 0 {
		t.Errorf("gap before busy = %v, want 0", got)
	}
	if got := tb.FirstGap(0, 0, 150*us); got != units.Time(300*us) {
		t.Errorf("150µs gap = %v, want 300µs", got)
	}
	if got := tb.FirstGap(0, units.Time(120*us), 30*us); got != units.Time(200*us) {
		t.Errorf("gap from inside busy = %v, want 200µs", got)
	}
	if got := tb.FirstGap(0, units.Time(210*us), 40*us); got != units.Time(210*us) {
		t.Errorf("gap fitting [200,250) window = %v, want 210µs", got)
	}
}

func TestGapsEnumeratesCandidates(t *testing.T) {
	tb := New(cfg2(), 10*ms)
	if err := tb.PlaceTask(0, 0, 0, units.Time(100*us), 100*us); err != nil {
		t.Fatal(err)
	}
	got := tb.Gaps(0, 0, 50*us, 3)
	if len(got) != 2 {
		t.Fatalf("Gaps = %v, want 2 candidates (before + after the block)", got)
	}
	if got[0] != 0 || got[1] != units.Time(200*us) {
		t.Errorf("Gaps = %v, want [0 200µs]", got)
	}
}

func TestPlaceMessagePacksFrames(t *testing.T) {
	sys := msgSystem(t, 3, 40*us)
	tb := New(cfg2(), 10*ms)
	msgs := sys.App.Messages(int(model.ST))
	// 40+40 fits one 100µs slot; the third message spills to the
	// next cycle's slot.
	e1, err := tb.PlaceMessage(&sys.App, msgs[0], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := tb.PlaceMessage(&sys.App, msgs[1], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	e3, err := tb.PlaceMessage(&sys.App, msgs[2], 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Cycle != 0 || e1.Slot != 1 || e1.Offset != 0 {
		t.Errorf("e1 = %+v", e1)
	}
	if e2.Cycle != 0 || e2.Slot != 1 || e2.Offset != 40*us {
		t.Errorf("e2 = %+v", e2)
	}
	if e3.Cycle != 1 || e3.Slot != 1 || e3.Offset != 0 {
		t.Errorf("e3 should spill to cycle 1: %+v", e3)
	}
	// Delivery at slot end.
	if e1.Delivery != units.Time(100*us) {
		t.Errorf("delivery = %v, want slot end 100µs", e1.Delivery)
	}
	if e3.Delivery != units.Time(400*us) {
		t.Errorf("spilled delivery = %v, want 400µs", e3.Delivery)
	}
}

func TestPlaceMessageHonoursReadiness(t *testing.T) {
	sys := msgSystem(t, 1, 40*us)
	tb := New(cfg2(), 10*ms)
	m := sys.App.Messages(int(model.ST))[0]
	// Ready just after slot 1 of cycle 0 started: must go to cycle 1.
	e, err := tb.PlaceMessage(&sys.App, m, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e.Cycle != 1 {
		t.Errorf("message placed in cycle %d, want 1", e.Cycle)
	}
}

func TestPlaceMessageRequiresSlotOwnership(t *testing.T) {
	sys := msgSystem(t, 1, 40*us)
	cfg := cfg2()
	cfg.StaticSlotOwner = []model.NodeID{1, 1} // node 0 owns nothing
	tb := New(cfg, 10*ms)
	m := sys.App.Messages(int(model.ST))[0]
	if _, err := tb.PlaceMessage(&sys.App, m, 0, 0); err == nil {
		t.Fatal("placement without slot ownership accepted")
	}
}

func TestPlaceMessageRejectsOversized(t *testing.T) {
	sys := msgSystem(t, 1, 150*us)
	tb := New(cfg2(), 10*ms)
	m := sys.App.Messages(int(model.ST))[0]
	if _, err := tb.PlaceMessage(&sys.App, m, 0, 0); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestEntriesLookup(t *testing.T) {
	sys := msgSystem(t, 2, 40*us)
	tb := New(cfg2(), 10*ms)
	m := sys.App.Messages(int(model.ST))[0]
	if _, err := tb.PlaceMessage(&sys.App, m, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.PlaceMessage(&sys.App, m, 1, units.Time(5*ms)); err != nil {
		t.Fatal(err)
	}
	if got := len(tb.MsgEntries(m)); got != 2 {
		t.Errorf("MsgEntries = %d instances, want 2", got)
	}
	if err := tb.PlaceTask(9, 0, 0, 0, 10*us); err != nil {
		t.Fatal(err)
	}
	if got := len(tb.TaskEntries(9)); got != 1 {
		t.Errorf("TaskEntries = %d, want 1", got)
	}
	if got := len(tb.SlotContent(0, 1)); got != 1 {
		t.Errorf("SlotContent(0,1) = %d messages", got)
	}
}

func TestAvailabilityFreeIn(t *testing.T) {
	tb := New(cfg2(), units.Duration(1*ms))
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Busy [200,400) and [600,700) within a 1 ms period.
	must(tb.PlaceTask(0, 0, 0, units.Time(200*us), 200*us))
	must(tb.PlaceTask(1, 0, 0, units.Time(600*us), 100*us))
	av := tb.Availability(0)

	cases := []struct {
		a, b units.Time
		want units.Duration
	}{
		{0, units.Time(200 * us), 200 * us}, // all free
		{0, units.Time(400 * us), 200 * us}, // skips busy
		{units.Time(200 * us), units.Time(400 * us), 0},
		{0, units.Time(1 * ms), 700 * us},                       // one full period
		{0, units.Time(2 * ms), 1400 * us},                      // two periods
		{units.Time(900 * us), units.Time(1200 * us), 300 * us}, // wraps
		// [1200,1500) has phase [200,500): 200µs inside the busy
		// block, 100µs free.
		{units.Time(1200 * us), units.Time(1500 * us), 100 * us},
	}
	for _, c := range cases {
		if got := av.FreeIn(c.a, c.b); got != c.want {
			t.Errorf("FreeIn(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestAvailabilityAdvance(t *testing.T) {
	tb := New(cfg2(), units.Duration(1*ms))
	if err := tb.PlaceTask(0, 0, 0, units.Time(200*us), 200*us); err != nil {
		t.Fatal(err)
	}
	av := tb.Availability(0)
	cases := []struct {
		from   units.Time
		demand units.Duration
		want   units.Time
	}{
		{0, 100 * us, units.Time(100 * us)},
		{0, 200 * us, units.Time(200 * us)},
		{0, 201 * us, units.Time(401 * us)}, // hops the busy block
		{units.Time(250 * us), 50 * us, units.Time(450 * us)},
		{0, 800 * us, units.Time(1 * ms)},     // exactly one period of supply
		{0, 900 * us, units.Time(1100 * us)},  // into the second period
		{0, 1700 * us, units.Time(2100 * us)}, // 800+800+100 across three periods
	}
	for _, c := range cases {
		if got := av.Advance(c.from, c.demand); got != c.want {
			t.Errorf("Advance(%v,%v) = %v, want %v", c.from, c.demand, got, c.want)
		}
	}
}

func TestAdvanceSaturatesWithoutSlack(t *testing.T) {
	tb := New(cfg2(), units.Duration(1*ms))
	if err := tb.PlaceTask(0, 0, 0, 0, 1*ms); err != nil {
		t.Fatal(err)
	}
	av := tb.Availability(0)
	if got := av.Advance(0, us); units.Duration(got) < units.Infinite {
		t.Errorf("Advance on a fully booked node = %v, want saturation", got)
	}
}

// Property: FreeIn(from, Advance(from, d)) == d whenever supply exists,
// i.e. Advance is the inverse of the supply function.
func TestAdvanceFreeInInverseProperty(t *testing.T) {
	tb := New(cfg2(), units.Duration(1*ms))
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(tb.PlaceTask(0, 0, 0, units.Time(100*us), 150*us))
	must(tb.PlaceTask(1, 0, 0, units.Time(500*us), 250*us))
	av := tb.Availability(0)

	f := func(fromUs uint16, demandUs uint16) bool {
		from := units.Time(int64(fromUs) * int64(us))
		demand := units.Duration(int64(demandUs%2000)+1) * us
		end := av.Advance(from, demand)
		return av.FreeIn(from, end) == demand
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFoldedBusyWrapsAcrossHorizon(t *testing.T) {
	tb := New(cfg2(), units.Duration(1*ms))
	// A reservation crossing the horizon: [900µs, 1100µs) folds into
	// [900,1000) + [0,100).
	if err := tb.PlaceTask(0, 0, 0, units.Time(900*us), 200*us); err != nil {
		t.Fatal(err)
	}
	av := tb.Availability(0)
	if got := av.FreeIn(0, units.Time(100*us)); got != 0 {
		t.Errorf("folded head not busy: FreeIn(0,100µs) = %v", got)
	}
	if got := av.FreeIn(units.Time(900*us), units.Time(1*ms)); got != 0 {
		t.Errorf("folded tail not busy: %v", got)
	}
	if got := av.TotalBusy(); got != 200*us {
		t.Errorf("TotalBusy = %v, want 200µs", got)
	}
}

func TestCloneTableIndependence(t *testing.T) {
	sys := msgSystem(t, 2, 40*us)
	tb := New(cfg2(), 10*ms)
	m := sys.App.Messages(int(model.ST))[0]
	if _, err := tb.PlaceMessage(&sys.App, m, 0, 0); err != nil {
		t.Fatal(err)
	}
	cl := tb.Clone()
	m2 := sys.App.Messages(int(model.ST))[1]
	if _, err := cl.PlaceMessage(&sys.App, m2, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.PlaceTask(5, 0, 0, 0, 10*us); err != nil {
		t.Fatal(err)
	}
	if len(tb.Msgs) != 1 {
		t.Errorf("clone placement leaked into original: %d messages", len(tb.Msgs))
	}
	if len(tb.Busy(0)) != 0 {
		t.Errorf("clone task reservation leaked into original")
	}
	// Packing state must also be cloned: the original still has room.
	if _, err := tb.PlaceMessage(&sys.App, m2, 0, 0); err != nil {
		t.Fatal(err)
	}
	e := tb.Msgs[1]
	if e.Offset != 40*us {
		t.Errorf("original packing offset = %v, want 40µs", e.Offset)
	}
}

func TestBusyBoundaries(t *testing.T) {
	tb := New(cfg2(), units.Duration(1*ms))
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(tb.PlaceTask(0, 0, 0, units.Time(100*us), 100*us))
	must(tb.PlaceTask(1, 0, 0, units.Time(500*us), 100*us))
	av := tb.Availability(0)
	b := av.BusyBoundaries()
	if len(b) != 3 {
		t.Fatalf("BusyBoundaries = %v, want 3 (phase 0 + 2 starts)", b)
	}
	if b[0] != 0 || b[1] != units.Time(100*us) || b[2] != units.Time(500*us) {
		t.Errorf("BusyBoundaries = %v", b)
	}
}

// TestAvailabilityMemoFollowsPlacements pins the per-node memo: a
// placement on a node drops that node's memoised supply function and
// no other, a clone starts with its own memo, and nodes and activities
// the table never touched read as empty.
func TestAvailabilityMemoFollowsPlacements(t *testing.T) {
	tb := New(cfg2(), units.Duration(1*ms))
	if err := tb.PlaceTask(0, 0, 0, units.Time(100*us), 100*us); err != nil {
		t.Fatal(err)
	}
	av0, av1 := tb.Availability(0), tb.Availability(1)
	if av0.TotalBusy() != 100*us || av1.TotalBusy() != 0 {
		t.Fatalf("busy = %v and %v, want 100µs and 0", av0.TotalBusy(), av1.TotalBusy())
	}
	cl := tb.Clone()
	if err := tb.PlaceTask(1, 0, 0, units.Time(500*us), 100*us); err != nil {
		t.Fatal(err)
	}
	if got := tb.Availability(0).TotalBusy(); got != 200*us {
		t.Errorf("after a placement node 0 is busy %v, want 200µs", got)
	}
	if tb.Availability(1) != av1 {
		t.Error("a placement on node 0 dropped node 1's supply function")
	}
	if got := cl.Availability(0).TotalBusy(); got != 100*us {
		t.Errorf("clone sees the original's later placement: busy %v, want 100µs", got)
	}
	if got := tb.Availability(7); got.TotalBusy() != 0 || len(got.BusyBoundaries()) != 1 {
		t.Errorf("untouched node 7: busy %v, boundaries %v", got.TotalBusy(), got.BusyBoundaries())
	}
	if tb.Busy(7) != nil || tb.TaskEntryIndices(42) != nil || tb.MsgEntryIndices(42) != nil || tb.Busy(-1) != nil {
		t.Error("out-of-range reads are not empty")
	}
}

// TestReserveKeepsContent: a reserved table holds exactly what an
// unreserved one does after the same placements, including an activity
// placed more often than reserved, whose index list must then copy
// instead of overwriting its neighbour's in the shared backing array.
func TestReserveKeepsContent(t *testing.T) {
	sys := msgSystem(t, 3, 20*us)
	app := &sys.App
	plain, reserved := New(cfg2(), 10*ms), New(cfg2(), 10*ms)
	reserved.Reserve(app, func(id model.ActID) int {
		if app.Act(id).IsTT() {
			return 1
		}
		return 0
	})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	start := units.Time(0)
	for _, id := range []model.ActID{0, 3, 6, 0} { // sender 0 twice
		for _, tb := range []*Table{plain, reserved} {
			must(tb.PlaceTask(id, len(tb.TaskEntryIndices(id)), 0, start, 10*us))
		}
		start = start.Add(10 * us)
	}
	msgs := app.Messages(int(model.ST))
	for _, m := range append(msgs, msgs[0]) { // message 0 twice
		for _, tb := range []*Table{plain, reserved} {
			if _, err := tb.PlaceMessage(app, m, len(tb.MsgEntryIndices(m)), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !reflect.DeepEqual(plain.Tasks, reserved.Tasks) || !reflect.DeepEqual(plain.Msgs, reserved.Msgs) {
		t.Fatalf("entries differ:\n plain %v %v\n reserved %v %v", plain.Tasks, plain.Msgs, reserved.Tasks, reserved.Msgs)
	}
	for n := model.NodeID(0); n < 2; n++ {
		if !reflect.DeepEqual(plain.Busy(n), reserved.Busy(n)) {
			t.Errorf("Busy(%d): plain %v, reserved %v", n, plain.Busy(n), reserved.Busy(n))
		}
	}
	for i := range app.Acts {
		id := model.ActID(i)
		if got, want := reserved.TaskEntryIndices(id), plain.TaskEntryIndices(id); !reflect.DeepEqual(got, want) {
			t.Errorf("TaskEntryIndices(%d) = %v, want %v", id, got, want)
		}
		if got, want := reserved.MsgEntryIndices(id), plain.MsgEntryIndices(id); !reflect.DeepEqual(got, want) {
			t.Errorf("MsgEntryIndices(%d) = %v, want %v", id, got, want)
		}
	}
	// A table that already holds entries is left as it is.
	before := len(reserved.Tasks)
	reserved.Reserve(app, func(model.ActID) int { return 5 })
	if len(reserved.Tasks) != before || !reflect.DeepEqual(plain.Tasks, reserved.Tasks) {
		t.Error("Reserve changed a filled table")
	}
}
