// Jobsapi: drive the asynchronous job subsystem in-process — the same
// engine flexray-serve exposes under /v1/jobs. A campaign over a small
// synthesised population is submitted as a background job with metrics
// and optimiser-trace capture enabled; its live progress events are
// tailed as they stream in (peeking at the convergence trace on each
// one), and the finished record set, per-system convergence summary and
// a scrape of the job metrics are printed — exactly what an operator
// sees via GET /metrics and GET /v1/jobs/{id}/trace.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"sort"
	"strings"

	"repro/internal/jobs"
	"repro/internal/obs"
)

func main() {
	// The registry is what flexray-serve exposes at GET /metrics; the
	// job-metrics bridge instruments the manager built below.
	reg := obs.NewRegistry()

	// An in-memory store keeps the example self-contained; pass a
	// jobs.NewFileStore path instead and jobs survive restarts.
	mgr, err := jobs.NewManager(jobs.NewMemStore(), jobs.ManagerOptions{
		Workers:     1,
		EvalWorkers: 2,
		Logf:        log.Printf,
		Metrics:     jobs.NewMetrics(reg),
		TraceCap:    4096, // per-job optimiser trace ring
	})
	if err != nil {
		log.Fatal(err)
	}
	defer mgr.Close(context.Background())

	// A campaign job over eight synthesised systems (2- and 3-node
	// platforms, the paper's Section 7 population) with reduced
	// budgets so the example finishes in seconds.
	job, err := mgr.Submit(jobs.Spec{
		Kind:       jobs.KindCampaign,
		Algorithms: []string{"bbc", "obc-cf"},
		Tuning: &jobs.Tuning{
			DYNGridCap:     24,
			SlotCountCap:   2,
			SlotLenSteps:   3,
			MaxEvaluations: 300,
		},
		Population: &jobs.Population{
			NodeCounts:     []int{2, 3},
			AppsPerCount:   4,
			Seed:           1,
			DeadlineFactor: 2.0,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted %s (%s)\n", job.ID, job.Status)

	// Tail the progress stream until the terminal transition; the
	// channel closes when the job is done. On every update, poll the
	// live optimiser trace the way a dashboard polls
	// GET /v1/jobs/{id}/trace.
	_, events, cancel, err := mgr.Subscribe(job.ID)
	if err != nil {
		log.Fatal(err)
	}
	defer cancel()
	for ev := range events {
		p := ev.Job.Progress
		traced := 0
		if snap, _, err := mgr.Trace(job.ID); err == nil {
			traced = len(snap.Events)
		}
		fmt.Printf("  %-7s %d/%d schedulable=%d best=%s cost=%.1f trace=%d events\n",
			ev.Job.Status, p.Completed, p.Total, p.Schedulable, p.Best, p.BestCost, traced)
	}

	res, final, err := mgr.Result(job.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job %s finished in %v: %d records\n",
		final.ID, final.FinishedAt.Sub(final.StartedAt).Round(1e6), len(res.Records))
	for _, rec := range res.Records {
		line, err := json.Marshal(rec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(line))
	}

	// Convergence summary from the captured trace: per system, how many
	// candidates each optimiser explored and how far the cost fell.
	snap, _, err := mgr.Trace(job.ID)
	if err != nil {
		log.Fatal(err)
	}
	type conv struct {
		events      int
		first, best float64
	}
	bySystem := map[string]*conv{}
	for _, ev := range snap.Events {
		c := bySystem[ev.System]
		if c == nil {
			c = &conv{first: ev.Cost, best: math.Inf(1)}
			bySystem[ev.System] = c
		}
		c.events++
		if ev.BestCost < c.best {
			c.best = ev.BestCost
		}
	}
	names := make([]string, 0, len(bySystem))
	for name := range bySystem {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("convergence (%d traced events, %d total):\n", len(snap.Events), snap.Total)
	for _, name := range names {
		c := bySystem[name]
		fmt.Printf("  %-12s %4d candidates  first=%9.1f  best=%9.1f\n",
			name, c.events, c.first, c.best)
	}

	// Finally, the jobs slice of the Prometheus scrape — what
	// `curl localhost:8080/metrics | grep flexray_jobs` shows.
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		log.Fatal(err)
	}
	fmt.Println("metrics excerpt:")
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, "flexray_jobs_") && !strings.Contains(line, "_bucket{") {
			fmt.Println("  " + line)
		}
	}
}
