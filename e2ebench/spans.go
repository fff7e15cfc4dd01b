package main

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"text/tabwriter"
	"time"
)

// span is one recorded interval of the traced run. Spans are recorded by
// the benchmark around its calls into each module, never from inside
// the program.
type span struct {
	trace  [16]byte
	id     [8]byte
	parent [8]byte // zero for a root
	name   string
	start  time.Time
	end    time.Time
	attrs  []spanAttr
}

type spanAttr struct {
	key string
	val any // int64, float64 or string
}

func (s *span) set(key string, val any) { s.attrs = append(s.attrs, spanAttr{key, val}) }

// recorder keeps the spans of the traced run in memory until the run
// ends. IDs come from a counter, so the output is reproducible in shape.
type recorder struct {
	mu    sync.Mutex
	spans []*span
	next  uint64
}

// start opens a span; a nil parent starts a new trace.
func (r *recorder) start(parent *span, name string) *span {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	s := &span{name: name, start: time.Now()}
	binary.BigEndian.PutUint64(s.id[:], r.next)
	if parent == nil {
		binary.BigEndian.PutUint64(s.trace[8:], r.next)
	} else {
		s.trace, s.parent = parent.trace, parent.id
	}
	r.spans = append(r.spans, s)
	return s
}

func (s *span) finish() { s.end = time.Now() }

// otlpSpan is the OTLP/JSON span layout that `flexray-bench trace -in`
// reads: 64-bit integers as strings, typed attribute values.
type otlpSpan struct {
	TraceID   string         `json:"traceId"`
	SpanID    string         `json:"spanId"`
	ParentID  string         `json:"parentSpanId,omitempty"`
	Name      string         `json:"name"`
	StartNano string         `json:"startTimeUnixNano"`
	EndNano   string         `json:"endTimeUnixNano"`
	Attrs     []otlpAttr     `json:"attributes,omitempty"`
	Status    map[string]int `json:"status"`
}

type otlpAttr struct {
	Key   string         `json:"key"`
	Value map[string]any `json:"value"`
}

// writeJSONL writes every span as one OTLP/JSON line.
func (r *recorder) writeJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		o := otlpSpan{
			TraceID:   hex.EncodeToString(s.trace[:]),
			SpanID:    hex.EncodeToString(s.id[:]),
			Name:      s.name,
			StartNano: strconv.FormatInt(s.start.UnixNano(), 10),
			EndNano:   strconv.FormatInt(s.end.UnixNano(), 10),
			Status:    map[string]int{"code": 0},
		}
		if s.parent != [8]byte{} {
			o.ParentID = hex.EncodeToString(s.parent[:])
		}
		for _, a := range s.attrs {
			var v map[string]any
			switch x := a.val.(type) {
			case int64:
				v = map[string]any{"intValue": strconv.FormatInt(x, 10)}
			case float64:
				v = map[string]any{"doubleValue": x}
			default:
				v = map[string]any{"stringValue": fmt.Sprint(x)}
			}
			o.Attrs = append(o.Attrs, otlpAttr{Key: a.key, Value: v})
		}
		if err := enc.Encode(o); err != nil {
			return err
		}
	}
	return nil
}

// interval is a half-open time range in nanoseconds.
type interval struct{ from, to int64 }

// selfTime is a span's duration minus the part of it that its children
// cover. Children may overlap each other (the portfolio races its
// optimisers), so their union is subtracted, not their sum.
func selfTime(parent interval, children []interval) time.Duration {
	cs := slices.Clone(children)
	sort.Slice(cs, func(i, j int) bool { return cs[i].from < cs[j].from })
	covered := int64(0)
	cur := interval{from: parent.from, to: parent.from}
	for _, c := range cs {
		c.from, c.to = max(c.from, parent.from), min(c.to, parent.to)
		if c.to <= c.from {
			continue
		}
		if c.from > cur.to {
			covered += cur.to - cur.from
			cur = c
		} else {
			cur.to = max(cur.to, c.to)
		}
	}
	covered += cur.to - cur.from
	return time.Duration(parent.to - parent.from - covered)
}

// layerSelfTimes sums self time per layer, the span-name prefix before
// the first dot ("core.sa" belongs to "core"). An optimiser span's time
// inside the evaluation hook (its hook_ms attribute) is the campaign
// engine's, not the optimiser's.
func (r *recorder) layerSelfTimes() map[string]time.Duration {
	children := map[[8]byte][]interval{}
	for _, s := range r.spans {
		if s.parent != [8]byte{} {
			children[s.parent] = append(children[s.parent], interval{s.start.UnixNano(), s.end.UnixNano()})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range r.spans {
		layer, _, _ := strings.Cut(s.name, ".")
		self := selfTime(interval{s.start.UnixNano(), s.end.UnixNano()}, children[s.id])
		for _, a := range s.attrs {
			if hook, ok := a.val.(float64); ok && a.key == "hook_ms" {
				d := time.Duration(hook * float64(time.Millisecond))
				self -= d
				out["campaign"] += d
			}
		}
		out[layer] += self
	}
	return out
}

// writeSelfTable prints the per-layer self-time table, largest first.
func writeSelfTable(w io.Writer, self map[string]time.Duration) {
	var total time.Duration
	layers := make([]string, 0, len(self))
	for l, d := range self {
		layers = append(layers, l)
		total += d
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "layer\tself ms\tshare\t")
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = float64(self[l]) / float64(total) * 100
		}
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f%%\t\n", l, ms(self[l]), share)
	}
	tw.Flush()
}
