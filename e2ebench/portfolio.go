package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/sched"
)

// algorithms is the default portfolio in canonical order (ties on cost go
// to the earlier one), with the optimiser each name runs.
var algorithms = []struct {
	name string
	run  func(*model.System, core.Options) (*core.Result, error)
}{
	{"BBC", core.BBC},
	{"OBC-CF", core.OBCCF},
	{"OBC-EE", core.OBCEE},
	{"SA", core.SA},
}

// evalProbe is the evaluation hook the benchmark gives each optimiser:
// it forwards to the shared campaign engine, times the calls and keeps
// the candidate stream for the replay.
type evalProbe struct {
	eng    *campaign.Engine
	inHook time.Duration
	cands  []*flexray.Config
}

func (p *evalProbe) Eval(sys *model.System, cfg *flexray.Config, opts sched.Options) (*analysis.Result, float64) {
	t := time.Now()
	res, cost := p.eng.Eval(sys, cfg, opts)
	p.inHook += time.Since(t)
	p.cands = append(p.cands, cfg.Clone())
	return res, cost
}

func (p *evalProbe) EvalBatch(sys *model.System, cfgs []*flexray.Config, opts sched.Options) ([]*analysis.Result, []float64) {
	t := time.Now()
	res, costs := p.eng.EvalBatch(sys, cfgs, opts)
	p.inHook += time.Since(t)
	for _, c := range cfgs {
		p.cands = append(p.cands, c.Clone())
	}
	return res, costs
}

// algoOutcome is one optimiser's result inside a portfolio.
type algoOutcome struct {
	Algorithm   string  `json:"algorithm"`
	Cost        float64 `json:"cost"`
	Evaluations int     `json:"evaluations"`
	Schedulable bool    `json:"schedulable"`
}

// outcome is what the correctness gate compares for one system: the
// per-algorithm results and the winner.
type outcome struct {
	Name string        `json:"name"`
	Best string        `json:"best"`
	Runs []algoOutcome `json:"runs"`
}

func (o outcome) equal(p outcome) bool {
	if o.Name != p.Name || o.Best != p.Best || len(o.Runs) != len(p.Runs) {
		return false
	}
	for i := range o.Runs {
		if o.Runs[i] != p.Runs[i] {
			return false
		}
	}
	return true
}

func (o outcome) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s best=%s", o.Name, o.Best)
	for _, r := range o.Runs {
		fmt.Fprintf(&b, " %s:%v/%d", r.Algorithm, r.Cost, r.Evaluations)
	}
	return b.String()
}

// portfolioRun is the in-process portfolio on one system, as the server
// runs it, plus what the probes saw.
type portfolioRun struct {
	outcome outcome
	best    *core.Result
	wall    time.Duration
	algWall map[string]time.Duration
	inHook  map[string]time.Duration
	stream  []*flexray.Config // every candidate, algorithms in canonical order
	engine  campaign.EngineStats
}

// runPortfolio runs the four optimisers over one shared campaign engine.
// race runs them concurrently, as POST /v1/optimize does; otherwise they
// run one after another, as a campaign job does. Spans go under parent.
func runPortfolio(ctx context.Context, sys *model.System, opts core.Options, race bool, rec *recorder, parent *span) (*portfolioRun, error) {
	sp := rec.start(parent, "campaign.portfolio")
	eng := campaign.NewEngine(ctx, campaign.EngineOptions{})
	probes := make([]*evalProbe, len(algorithms))
	results := make([]*core.Result, len(algorithms))
	errs := make([]error, len(algorithms))
	algSpans := make([]*span, len(algorithms))
	runOne := func(i int) {
		p := &evalProbe{eng: eng}
		o := opts
		o.Eval = p
		asp := rec.start(sp, "core."+strings.ToLower(algorithms[i].name))
		results[i], errs[i] = algorithms[i].run(sys, o)
		asp.finish()
		probes[i], algSpans[i] = p, asp
	}
	if race {
		var wg sync.WaitGroup
		for i := range algorithms {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runOne(i)
			}()
		}
		wg.Wait()
	} else {
		for i := range algorithms {
			runOne(i)
		}
	}
	sp.finish()

	pr := &portfolioRun{
		outcome: outcome{Name: sys.Name},
		wall:    sp.end.Sub(sp.start),
		algWall: map[string]time.Duration{},
		inHook:  map[string]time.Duration{},
		engine:  eng.Stats(),
	}
	for i, a := range algorithms {
		if errs[i] != nil {
			return nil, fmt.Errorf("%s on %s: %w", a.name, sys.Name, errs[i])
		}
		r, p, asp := results[i], probes[i], algSpans[i]
		wall := asp.end.Sub(asp.start)
		asp.set("cost", r.Cost)
		asp.set("evaluations", int64(r.Evaluations))
		asp.set("candidates", int64(len(p.cands)))
		asp.set("hook_ms", ms(p.inHook))
		asp.set("self_ms", ms(wall-p.inHook))
		pr.outcome.Runs = append(pr.outcome.Runs, algoOutcome{a.name, r.Cost, r.Evaluations, r.Schedulable})
		if pr.best == nil || r.Cost < pr.best.Cost {
			pr.best, pr.outcome.Best = r, a.name
		}
		pr.algWall[a.name], pr.inHook[a.name] = wall, p.inHook
		pr.stream = append(pr.stream, p.cands...)
	}
	sp.set("evaluations", pr.engine.Evaluations)
	sp.set("cache_hits", pr.engine.CacheHits)
	sp.set("cache_misses", pr.engine.CacheMisses)
	return pr, nil
}
