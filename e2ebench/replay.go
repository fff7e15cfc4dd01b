package main

import (
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/schedule"
)

// replayChunk bounds how many schedule tables the replay holds at once
// between the table-construction and the analysis pass.
const replayChunk = 256

// phaseStats aggregates one replayed layer over a candidate stream.
type phaseStats struct {
	calls  int64
	total  time.Duration
	max    time.Duration
	allocs uint64
}

func (p *phaseStats) add(d time.Duration) {
	p.calls++
	p.total += d
	p.max = max(p.max, d)
}

func (p *phaseStats) merge(o phaseStats) {
	p.calls += o.calls
	p.total += o.total
	p.max = max(p.max, o.max)
	p.allocs += o.allocs
}

func (p phaseStats) meanUs() float64 {
	if p.calls == 0 {
		return 0
	}
	return float64(p.total) / float64(p.calls) / float64(time.Microsecond)
}

func (p phaseStats) allocsPerCall() float64 {
	if p.calls == 0 {
		return 0
	}
	return float64(p.allocs) / float64(p.calls)
}

// annotate puts the aggregate on the phase's span: one span per phase,
// not per candidate, keeps the traced run cheap.
func (p phaseStats) annotate(s *span) {
	s.set("candidates", p.calls)
	s.set("mean_us", p.meanUs())
	s.set("max_us", float64(p.max)/float64(time.Microsecond))
	s.set("allocs_per_op", p.allocsPerCall())
}

// replayStats is the layer split of one system's candidate stream.
type replayStats struct {
	eval, build, analyse phaseStats
	busCycles            int64 // Σ BusCycles over every DYN message of every candidate
	nonConverged         int64
}

func (r *replayStats) merge(o replayStats) {
	r.eval.merge(o.eval)
	r.build.merge(o.build)
	r.analyse.merge(o.analyse)
	r.busCycles += o.busCycles
	r.nonConverged += o.nonConverged
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// pass times f(0..n-1), one call at a time, under a span of its own
// that carries the aggregate. Allocations are counted around the whole
// pass, so the count holds only the layer the pass calls.
func pass(rec *recorder, parent *span, name string, n int, f func(i int) bool) phaseStats {
	var st phaseStats
	sp := rec.start(parent, name)
	m0 := mallocs()
	for i := 0; i < n; i++ {
		t := time.Now()
		if f(i) {
			st.add(time.Since(t))
		}
	}
	st.allocs = mallocs() - m0
	sp.finish()
	st.annotate(sp)
	return st
}

// replay feeds the captured candidates, in order, through
// core.Session.Eval, then through sched.BuildTable and a fresh
// analysis.New(...).Run on that table. The last two go in chunks so the
// tables of one chunk stay in memory between the passes.
func replay(sys *model.System, opts core.Options, stream []*flexray.Config, rec *recorder, parent *span) replayStats {
	var st replayStats
	sp := rec.start(parent, "bench.replay")
	defer sp.finish()

	sess := core.NewSession(sys, opts.Sched)
	st.eval = pass(rec, sp, "core.session_eval", len(stream), func(i int) bool {
		sess.Eval(stream[i])
		return true
	})

	tables := make([]*schedule.Table, replayChunk)
	for lo := 0; lo < len(stream); lo += replayChunk {
		chunk := stream[lo:min(lo+replayChunk, len(stream))]
		st.build.merge(pass(rec, sp, "sched.build_table", len(chunk), func(i int) bool {
			t, err := sched.BuildTable(sys, chunk[i], opts.Sched)
			if err != nil {
				t = nil // infeasible candidate: nothing to analyse
			}
			tables[i] = t
			return true
		}))
		st.analyse.merge(pass(rec, sp, "analysis.run", len(chunk), func(i int) bool {
			if tables[i] == nil {
				return false
			}
			analysis.New(sys, chunk[i], tables[i], opts.Sched.Analysis).Run()
			return true
		}))
		// Explanations are counted outside the timed passes.
		for i, cfg := range chunk {
			if tables[i] == nil {
				continue
			}
			an := analysis.New(sys, cfg, tables[i], opts.Sched.Analysis)
			res := an.Run()
			if !res.Converged {
				st.nonConverged++
			}
			for _, d := range an.ExplainAll(res) {
				st.busCycles += d.BusCycles
			}
		}
	}
	sp.set("dyn_bus_cycles", st.busCycles)
	sp.set("non_converged", st.nonConverged)
	return st
}
