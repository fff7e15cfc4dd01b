// Package campaign scales the paper's optimisers from one goroutine to
// the whole machine. Three layers build on each other:
//
//   - Engine, a worker-pool evaluation service that plugs into the
//     optimisers through core.EvalHook: independent candidate
//     configurations (the BBC/OBC-EE sweep grids) are evaluated
//     concurrently, results are memoised in a sharded, bounded LRU
//     cache keyed on the configuration fingerprint, and a context
//     cancels in-flight work. Each worker owns a pinned evaluation
//     session (core.Session), so the reusable-analyzer and
//     schedule-table reuse of the serial path carries over to every
//     worker. Because evaluations are pure, any worker count produces
//     bit-identical optimiser results — workers=1 reproduces the
//     serial behaviour exactly;
//   - Portfolio, which races BBC, OBC-CF, OBC-EE and SA concurrently
//     on one system over a shared engine (the cheap heuristics warm
//     the cache for the expensive ones) and reports the best result
//     plus per-algorithm telemetry;
//   - Run, which shards a generated population (the paper's Section 7
//     experiment sweeps) across workers deterministically and streams
//     per-system records, e.g. as JSONL.
package campaign

import (
	"container/list"
	"context"
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sched"
)

// infeasibleCost mirrors the optimisers' marker for configurations that
// could not be scheduled; cancelled evaluations report it too, so no
// optimiser ever prefers an aborted candidate.
const infeasibleCost = 1e15

// DefaultCacheSize bounds the evaluation cache of an engine.
const DefaultCacheSize = 4096

// maxCacheShards caps the sharding of the evaluation cache; beyond 64
// ways the mutexes stop being the bottleneck long before the shards do.
const maxCacheShards = 64

// workerSessionCap bounds the pinned sessions one worker keeps; engines
// usually serve a single system, so this only guards pathological
// multi-system reuse of one engine.
const workerSessionCap = 8

// EngineOptions tune one evaluation engine.
type EngineOptions struct {
	// Workers is the number of goroutines evaluating candidate
	// configurations; <= 0 selects GOMAXPROCS. Evaluations are pure
	// and batch reductions are position-aligned, so every worker
	// count produces identical optimiser results — only the
	// wall-clock changes.
	Workers int `json:"workers"`
}

// EngineStats report what an engine actually did. Cache hits include
// evaluations coalesced with an identical in-flight one.
type EngineStats struct {
	// Evaluations counts real schedule+analysis runs.
	Evaluations int64 `json:"evaluations"`
	// CacheHits counts evaluations answered from the cache.
	CacheHits int64 `json:"cache_hits"`
	// CacheMisses counts evaluations that had to run.
	CacheMisses int64 `json:"cache_misses"`
	// TableBuilds counts the schedule tables the evaluations
	// constructed; the rest came from the sessions' table memos.
	TableBuilds int64 `json:"table_builds"`
	// Analysis sums the analysis-layer counters of the evaluating
	// sessions: fixpoint passes, response cores computed and reused,
	// and Eq. (3) iterations. It is left out of the JSON when zero.
	Analysis analysis.Stats `json:"analysis,omitzero"`
}

// Add folds another snapshot into s.
func (s *EngineStats) Add(o EngineStats) {
	s.Evaluations += o.Evaluations
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.TableBuilds += o.TableBuilds
	s.Analysis.Add(o.Analysis)
}

// EngineCounters accumulate EngineStats from any number of goroutines;
// the serving layer and the job manager track their process totals
// with one. The zero value is ready to use.
type EngineCounters struct {
	evals, hits, misses, builds   atomic.Int64
	passes, computed, reused, eq3 atomic.Int64
}

// Add folds one snapshot into the counters.
func (c *EngineCounters) Add(st EngineStats) {
	c.evals.Add(st.Evaluations)
	c.hits.Add(st.CacheHits)
	c.misses.Add(st.CacheMisses)
	c.builds.Add(st.TableBuilds)
	c.passes.Add(st.Analysis.Passes)
	c.computed.Add(st.Analysis.CoresComputed)
	c.reused.Add(st.Analysis.CoresReused)
	c.eq3.Add(st.Analysis.Eq3Iterations)
}

// Total snapshots the accumulated counters.
func (c *EngineCounters) Total() EngineStats {
	return EngineStats{
		Evaluations: c.evals.Load(),
		CacheHits:   c.hits.Load(),
		CacheMisses: c.misses.Load(),
		TableBuilds: c.builds.Load(),
		Analysis: analysis.Stats{
			Passes:        c.passes.Load(),
			CoresComputed: c.computed.Load(),
			CoresReused:   c.reused.Load(),
			Eq3Iterations: c.eq3.Load(),
		},
	}
}

// cacheKey identifies one evaluation: the system instance, the
// configuration digest and the exact scheduler options.
type cacheKey struct {
	sys  *model.System
	fp   [16]byte
	opts sched.Options
}

// cacheEntry is one memoised (possibly still in-flight) evaluation.
// done is closed once res/cost are valid; concurrent evaluations of the
// same key coalesce by waiting on it instead of re-running the build.
type cacheEntry struct {
	key  cacheKey
	res  *analysis.Result
	cost float64
	done chan struct{}
}

// cacheShard is one lock domain of the sharded evaluation cache.
type cacheShard struct {
	mu       sync.Mutex
	entries  map[cacheKey]*list.Element
	lru      list.List // of *cacheEntry, most recent first
	capacity int
}

// sessionKey identifies one pinned evaluation session: sessions are
// per-system and per-scheduler-options.
type sessionKey struct {
	sys  *model.System
	opts sched.Options
}

// engineWorker is the state pinned to one worker slot: its evaluation
// sessions, keyed by system. Only one goroutine holds a worker at a
// time, so no locking is needed inside.
type engineWorker struct {
	sessions map[sessionKey]*core.Session
}

// session returns the worker's pinned session for (sys, opts),
// creating it on first use.
func (w *engineWorker) session(sys *model.System, opts sched.Options) *core.Session {
	key := sessionKey{sys: sys, opts: opts}
	if s, ok := w.sessions[key]; ok {
		return s
	}
	if len(w.sessions) >= workerSessionCap {
		clear(w.sessions)
	}
	s := core.NewSession(sys, opts)
	w.sessions[key] = s
	return s
}

// Engine is a concurrent, caching evaluation service for candidate bus
// configurations. It implements core.EvalHook; install it with Hook.
// An Engine is safe for use by any number of goroutines.
type Engine struct {
	ctx context.Context
	// workers is the pool of pinned worker states; receiving one
	// grants a worker slot, returning it frees the slot.
	workers chan *engineWorker

	shards    []cacheShard
	shardMask uint64

	stats EngineCounters
}

var _ core.EvalHook = (*Engine)(nil)

// clampWorkers bounds a requested worker count to a small multiple of
// the CPU count: evaluations are pure CPU, so parallelism beyond that
// only costs memory — and the request may come from an untrusted
// client (flexray-serve forwards worker counts from job specs).
func clampWorkers(w int) int {
	if max := 8 * runtime.GOMAXPROCS(0); w > max {
		return max
	}
	return w
}

// NewEngine builds an engine. The context cancels in-flight and future
// evaluations: after cancellation every evaluation returns an
// infeasible cost immediately, so running optimisers drain fast and
// their results must be discarded by the caller.
func NewEngine(ctx context.Context, opts EngineOptions) *Engine {
	if ctx == nil {
		ctx = context.Background()
	}
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	w = clampWorkers(w)
	e := &Engine{ctx: ctx, workers: make(chan *engineWorker, w)}
	for i := 0; i < w; i++ {
		e.workers <- &engineWorker{sessions: map[sessionKey]*core.Session{}}
	}
	// Power-of-two shard count scaled to the worker pool, so the
	// per-shard mutexes stay uncontended at high worker counts; at
	// maxCacheShards ways a shard still holds 64 entries.
	n := 1
	for n < w && n < maxCacheShards {
		n <<= 1
	}
	e.shards = make([]cacheShard, n)
	e.shardMask = uint64(n - 1)
	for i := range e.shards {
		e.shards[i].entries = map[cacheKey]*list.Element{}
		e.shards[i].capacity = DefaultCacheSize / n
	}
	return e
}

// Hook returns a copy of opts with the engine installed as the
// evaluation hook of the optimisers.
func (e *Engine) Hook(opts core.Options) core.Options {
	opts.Eval = e
	return opts
}

// stampSystem wraps an optimiser trace hook so every event carries the
// system name — one campaign trace ring then tells the per-system
// convergence curves apart. A nil hook stays nil (the optimisers skip
// event construction entirely).
func stampSystem(tr obs.TraceFunc, system string) obs.TraceFunc {
	if tr == nil {
		return nil
	}
	return func(ev obs.TraceEvent) {
		ev.System = system
		tr(ev)
	}
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() EngineStats {
	return e.stats.Total()
}

// CacheShards reports how many lock domains the evaluation cache is
// split into.
func (e *Engine) CacheShards() int { return len(e.shards) }

// Cancelled reports whether the engine's context has been cancelled
// (results produced afterwards are garbage by design).
func (e *Engine) Cancelled() bool { return e.ctx.Err() != nil }

// shard picks the lock domain of a key from the low fingerprint bits
// (FNV output: uniformly distributed).
func (e *Engine) shard(key *cacheKey) *cacheShard {
	return &e.shards[binary.LittleEndian.Uint64(key.fp[:8])&e.shardMask]
}

// Eval evaluates one candidate configuration: sharded cache lookup,
// then one schedule build plus holistic analysis on a pinned worker
// session.
func (e *Engine) Eval(sys *model.System, cfg *flexray.Config, opts sched.Options) (*analysis.Result, float64) {
	key := cacheKey{sys: sys, fp: cfg.Fingerprint(), opts: opts}
	sh := e.shard(&key)
	sh.mu.Lock()
	if el, ok := sh.entries[key]; ok {
		ent := el.Value.(*cacheEntry)
		sh.lru.MoveToFront(el)
		sh.mu.Unlock()
		e.stats.hits.Add(1)
		<-ent.done
		return ent.res, ent.cost
	}
	ent := &cacheEntry{key: key, done: make(chan struct{})}
	sh.entries[key] = sh.lru.PushFront(ent)
	for sh.lru.Len() > sh.capacity {
		oldest := sh.lru.Back()
		sh.lru.Remove(oldest)
		delete(sh.entries, oldest.Value.(*cacheEntry).key)
	}
	sh.mu.Unlock()
	e.stats.misses.Add(1)
	// A cancelled evaluation caches an infeasible marker; that is
	// sound because the engine's lifetime is bound to its context —
	// every result produced after cancellation is discarded anyway.
	ent.res, ent.cost = e.run(sys, cfg, opts)
	close(ent.done)
	return ent.res, ent.cost
}

// EvalBatch evaluates independent candidates across the worker pool and
// returns positionally aligned results. Every candidate takes the
// per-candidate cache protocol (lookup, in-flight coalescing, insert).
func (e *Engine) EvalBatch(sys *model.System, cfgs []*flexray.Config, opts sched.Options) ([]*analysis.Result, []float64) {
	ress := make([]*analysis.Result, len(cfgs))
	costs := make([]float64, len(cfgs))
	if len(cfgs) == 0 {
		return ress, costs
	}
	if cap(e.workers) == 1 || len(cfgs) == 1 {
		// A single worker slot serialises the batch anyway; skip the
		// goroutine fan-out.
		for i, cfg := range cfgs {
			ress[i], costs[i] = e.Eval(sys, cfg, opts)
		}
		return ress, costs
	}
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func(i int, cfg *flexray.Config) {
			defer wg.Done()
			ress[i], costs[i] = e.Eval(sys, cfg, opts)
		}(i, cfg)
	}
	wg.Wait()
	return ress, costs
}

// run performs the real work on a pinned worker session.
func (e *Engine) run(sys *model.System, cfg *flexray.Config, opts sched.Options) (*analysis.Result, float64) {
	var wk *engineWorker
	select {
	case wk = <-e.workers:
		defer func() { e.workers <- wk }()
	case <-e.ctx.Done():
		return nil, infeasibleCost
	}
	if e.ctx.Err() != nil {
		return nil, infeasibleCost
	}
	sess := wk.session(sys, opts)
	builds, an := sess.TableBuilds(), sess.AnalysisStats()
	res, cost := sess.Eval(cfg)
	e.stats.Add(EngineStats{
		Evaluations: 1,
		TableBuilds: sess.TableBuilds() - builds,
		Analysis:    sess.AnalysisStats().Sub(an),
	})
	return res, cost
}
