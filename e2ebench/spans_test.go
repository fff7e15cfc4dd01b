package main

import (
	"bufio"
	"bytes"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestSelfTime(t *testing.T) {
	for _, c := range []struct {
		name     string
		parent   interval
		children []interval
		want     time.Duration
	}{
		{"no children", interval{0, 100}, nil, 100},
		{"disjoint", interval{0, 100}, []interval{{10, 30}, {60, 70}}, 70},
		// Racing optimisers overlap: the union is subtracted once.
		{"overlapping", interval{0, 100}, []interval{{20, 50}, {10, 30}, {60, 70}}, 50},
		{"nested", interval{0, 100}, []interval{{10, 90}, {20, 30}}, 20},
		{"clipped to the parent", interval{0, 100}, []interval{{-10, 20}, {90, 150}}, 70},
		{"fully covered", interval{0, 100}, []interval{{0, 60}, {50, 100}}, 0},
	} {
		if got := selfTime(c.parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

// fixedSpan adds a span with explicit times, in milliseconds from t0.
func fixedSpan(r *recorder, parent *span, name string, t0 time.Time, from, to int) *span {
	s := r.start(parent, name)
	s.start = t0.Add(time.Duration(from) * time.Millisecond)
	s.end = t0.Add(time.Duration(to) * time.Millisecond)
	return s
}

func TestLayerSelfTimes(t *testing.T) {
	t0 := time.Unix(1000, 0)
	r := &recorder{}
	root := fixedSpan(r, nil, "system", t0, 0, 100)
	pf := fixedSpan(r, root, "campaign.portfolio", t0, 0, 80)
	bbc := fixedSpan(r, pf, "core.bbc", t0, 0, 50)
	bbc.set("hook_ms", 40.0)
	fixedSpan(r, pf, "core.sa", t0, 10, 70)
	fixedSpan(r, root, "model.decode", t0, 80, 90)

	got := r.layerSelfTimes()
	want := map[string]time.Duration{
		"system":   10 * time.Millisecond, // 100 minus [0,80) and [80,90)
		"campaign": 50 * time.Millisecond, // portfolio [70,80) plus BBC's 40 ms in the hook
		"core":     70 * time.Millisecond, // BBC 50-40, SA 60
		"model":    10 * time.Millisecond,
	}
	if len(got) != len(want) {
		t.Fatalf("layers = %v, want %v", got, want)
	}
	for l, d := range want {
		if got[l] != d {
			t.Errorf("%s self = %v, want %v", l, got[l], d)
		}
	}
}

// TestSpansReadByTraceTool pins the file format: every line must decode
// as the OTLP/JSON span that `flexray-bench trace -in` renders.
func TestSpansReadByTraceTool(t *testing.T) {
	t0 := time.Unix(1000, 0)
	r := &recorder{}
	root := fixedSpan(r, nil, "system", t0, 0, 100)
	root.set("system", "cruise-controller")
	child := fixedSpan(r, root, "core.sa", t0, 5, 95)
	child.set("evaluations", int64(2001))
	child.set("hook_ms", 80.5)
	fixedSpan(r, nil, "system", t0, 100, 110)

	var buf bytes.Buffer
	if err := r.writeJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var spans []obs.SpanData
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var sd obs.SpanData
		if err := sd.UnmarshalJSON(sc.Bytes()); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		spans = append(spans, sd)
	}
	if len(spans) != 3 {
		t.Fatalf("decoded %d spans, want 3", len(spans))
	}
	if spans[1].Parent != spans[0].SpanID || spans[1].TraceID != spans[0].TraceID {
		t.Error("child span lost its parent or trace")
	}
	if spans[2].TraceID == spans[0].TraceID {
		t.Error("a second root must start a trace of its own")
	}
	if spans[1].Duration != 90*time.Millisecond || !spans[1].Start.Equal(t0.Add(5*time.Millisecond)) {
		t.Errorf("child interval = %v from %v", spans[1].Duration, spans[1].Start)
	}
	if len(spans[1].Attrs) != 2 {
		t.Errorf("child attributes = %v, want 2", spans[1].Attrs)
	}
}
