// e2ebench is the repository's end-to-end benchmark. It drives the real
// flexray-serve binary over loopback HTTP from one client connection
// (a closed loop: the callers of a design tool or a CI pipeline wait for
// each reply) and checks every served result outside the timed window.
// With -trace 1 it also runs the same inputs in-process, recording spans
// around the calls into each module, to split the cost across layers.
//
// Build and run it through run.sh from the repository root:
//
//	bash e2ebench/run.sh -workload optimize-cruise -seed 3 -seconds 50 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the times in it are scaled to
// a nominal host speed (see hostref.go). NOTES.md records why each
// workload exists and which layer metric should move which end-to-end
// metric.
package main

import (
	"bytes"
	"context"
	"debug/buildinfo"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/model"
)

// workloads are the benchmark's workloads, in BENCHMARK.json order.
var workloads = []string{"optimize-cruise", "campaign-tt"}

// setupSpawns is how many times set-up is measured per run; setup_s is
// the median.
const setupSpawns = 15

// rssOps is how many timed operations peak_rss_mb covers. A server with
// default flags keeps every finished job, so over a fixed-length window
// its high-water mark would grow with throughput and a faster server
// would read as a memory regression; a fixed operation count avoids that.
const rssOps = 100

// cruiseTracedReps is how often the traced run repeats the cruise
// portfolio, whose wall time follows one racing optimiser and so varies
// more than a population's mean.
const cruiseTracedReps = 11

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	serverBin string
	refBin    string
	workDir   string
	record    bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Int64Var(&o.seed, "seed", defaultSeed, "input seed")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the timed window in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 adds the traced in-process run and prints the per-layer metrics")
	fs.StringVar(&o.serverBin, "server", "", "flexray-serve binary to drive")
	fs.StringVar(&o.refBin, "hostref", "", "hostref binary, the host reference the timed window is scaled by")
	fs.StringVar(&o.workDir, "work-dir", ".bench_build/e2ebench", "directory for server logs and span files")
	fs.BoolVar(&o.record, "record-golden", false, "record "+goldenFile+" from the served default-seed results and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "e2ebench: unexpected argument %q\n", fs.Arg(0))
		return 2
	case o.serverBin == "" || (!o.record && o.refBin == ""):
		fmt.Fprintln(stderr, "e2ebench: -server and -hostref are required")
		return 2
	case !o.record && !slices.Contains(workloads, o.workload):
		fmt.Fprintf(stderr, "e2ebench: -workload must be one of %s\n", strings.Join(workloads, ", "))
		return 2
	case o.seconds < 1 || (o.trace != 0 && o.trace != 1):
		fmt.Fprintln(stderr, "e2ebench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if o.record {
		if err := recordGolden(ctx, o); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		return 0
	}
	res, err := bench(ctx, o, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects metrics in print order.
type report struct {
	names   []string
	metrics map[string]metric
}

func (r *report) add(name string, value float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.names = append(r.names, name)
	r.metrics[name] = metric{value, unit}
}

func (r *report) print(w io.Writer, title string) {
	fmt.Fprintln(w, title)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", n, m.Value, m.Unit)
	}
	tw.Flush()
}

// sample is one timed operation as the client saw it.
type sample struct {
	latency    time.Duration
	serverTime time.Duration // elapsed_us of an optimise; submitted→finished of a job
	submit     time.Duration // jobs: POST round trip
	queueWait  time.Duration // jobs: submitted→started
	runTime    time.Duration // jobs: started→finished
	notify     time.Duration // jobs: finished→terminal event read
	serverSys  []time.Duration
	outcomes   []outcome
	config     json.RawMessage // optimise: the served best configuration
}

// doOp runs one operation of the workload: it sends body k of the input.
func doOp(ctx context.Context, c *client, workload string, in *input, k int) (sample, error) {
	if workload == "optimize-cruise" {
		r, lat, err := c.optimize(ctx, in.Bodies[k])
		if err != nil {
			return sample{}, err
		}
		elapsed := time.Duration(r.ElapsedUs) * time.Microsecond
		for _, run := range r.Runs {
			if run.Err != "" {
				return sample{}, fmt.Errorf("%s failed: %s", run.Algorithm, run.Err)
			}
		}
		return sample{
			latency:    lat,
			serverTime: elapsed,
			serverSys:  []time.Duration{elapsed},
			outcomes:   []outcome{toOutcome(in.systemsOf(k)[0].Name, r.Best.Algorithm, r.Runs)},
			config:     r.Best.Config,
		}, nil
	}
	return jobOp(ctx, c, in.Bodies[k])
}

// doAll runs every body of the input once and joins the outcomes.
func doAll(ctx context.Context, c *client, workload string, in *input) ([]sample, []outcome, error) {
	var ss []sample
	var all []outcome
	for k := range in.Bodies {
		s, err := doOp(ctx, c, workload, in, k)
		if err != nil {
			return nil, nil, err
		}
		ss = append(ss, s)
		all = append(all, s.outcomes...)
	}
	return ss, all, nil
}

// jobOp runs one campaign job.
func jobOp(ctx context.Context, c *client, body []byte) (sample, error) {
	jr, err := c.runJob(ctx, body)
	if err != nil {
		return sample{}, err
	}
	j := jr.job
	s := sample{
		latency:    jr.latency,
		serverTime: j.FinishedAt.Sub(j.SubmittedAt),
		submit:     jr.submit,
		queueWait:  j.StartedAt.Sub(j.SubmittedAt),
		runTime:    j.FinishedAt.Sub(j.StartedAt),
		notify:     jr.seen.Sub(j.FinishedAt),
	}
	for _, rec := range jr.records {
		if rec.Err != "" {
			return sample{}, fmt.Errorf("system %s failed: %s", rec.Name, rec.Err)
		}
		// A campaign job runs the optimisers of a system one after
		// another, so its portfolio time is their sum.
		var sys time.Duration
		for _, run := range rec.Runs {
			if run.Err != "" {
				return sample{}, fmt.Errorf("system %s: %s failed: %s", rec.Name, run.Algorithm, run.Err)
			}
			sys += time.Duration(run.ElapsedUs) * time.Microsecond
		}
		s.serverSys = append(s.serverSys, sys)
		s.outcomes = append(s.outcomes, toOutcome(rec.Name, rec.Best, rec.Runs))
	}
	return s, nil
}

// coreOptions are the optimiser options the server derives from the
// request's tuning.
func coreOptions(t tuning) core.Options {
	jt := &jobs.Tuning{
		DYNGridCap:     t.DYNGridCap,
		SlotCountCap:   t.SlotCountCap,
		SlotLenSteps:   t.SlotLenSteps,
		MaxEvaluations: t.MaxEvaluations,
		SAIterations:   t.SAIterations,
		SASeed:         t.SASeed,
	}
	return jt.Apply(core.DefaultOptions())
}

// bench is one run: set-up, warm-up, the timed window, the correctness
// gate and, with -trace 1, the traced run.
func bench(ctx context.Context, o options, stdout, stderr io.Writer) (*result, error) {
	in, err := makeInput(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	def, err := makeInput(o.workload, defaultSeed)
	if err != nil {
		return nil, err
	}
	goldens, err := loadGolden()
	if err != nil {
		return nil, err
	}
	gold, ok := goldens[o.workload]
	if !ok {
		return nil, fmt.Errorf("%s has no entry for %s", goldenFile, o.workload)
	}
	// Correctness problems found outside the timed window.
	var problems []string
	fail := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	if h := def.hash(); h != gold.InputSHA256 {
		fail("the default-seed input changed: sha256 %s, %s pins %s", h, goldenFile, gold.InputSHA256)
	}

	// Set-up: spawn to ready, several times; the last server stays up.
	var setups []time.Duration
	var srv *server
	for i := 0; i < setupSpawns; i++ {
		s, d, err := startServer(ctx, o.serverBin, o.workDir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
		if i < setupSpawns-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()
	c := newClient(srv.base)
	defer c.close()

	// Warm-up, untimed: the default-seed input against the goldens, then
	// the run's own input, whose results every timed operation must equal.
	_, defOut, err := doAll(ctx, c, o.workload, def)
	if err != nil {
		return nil, fmt.Errorf("warm-up on the default seed: %w", err)
	}
	for _, d := range compareOutcomes(gold.Systems, defOut) {
		fail("default-seed result differs from %s:\n%s", goldenFile, d)
	}
	refs, served, err := doAll(ctx, c, o.workload, in)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	// The timed window.
	hr, err := startHostRef(ctx, o.refBin)
	if err != nil {
		return nil, err
	}
	defer hr.stop()
	cpu0, err := cpuTime(srv.pid())
	if err != nil {
		return nil, err
	}
	var samples []sample
	var refTimes []time.Duration
	var refTotal time.Duration
	var hwm int64
	attempted, failed, systems := 0, 0, 0
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds) * time.Second)
	for time.Now().Before(deadline) {
		k := attempted % len(in.Bodies)
		attempted++
		s, err := doOp(ctx, c, o.workload, in, k)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		rt, rerr := hr.time(ctx)
		if rerr != nil {
			return nil, rerr
		}
		refTimes, refTotal = append(refTimes, rt), refTotal+rt
		if err == nil && len(compareOutcomes(refs[k].outcomes, s.outcomes)) > 0 {
			err = errors.New("result differs from the warm-up result")
		}
		if err == nil && string(s.config) != string(refs[k].config) {
			err = errors.New("best configuration differs from the warm-up one")
		}
		if err != nil {
			failed++
			if failed <= 3 {
				fmt.Fprintf(stderr, "e2ebench: operation %d: %v\n", attempted, err)
			}
			continue
		}
		samples = append(samples, s)
		systems += len(s.outcomes)
		if len(samples) == rssOps {
			if hwm, err = peakRSS(srv.pid()); err != nil {
				return nil, err
			}
		}
	}
	wall := time.Since(start)
	cpu1, err := cpuTime(srv.pid())
	if err != nil {
		return nil, err
	}
	if len(samples) < rssOps {
		if hwm, err = peakRSS(srv.pid()); err != nil {
			return nil, err
		}
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("no operation succeeded in %v", wall)
	}

	// Optimise requests never touch the job path; a few jobs carrying the
	// cruise system after the window give its job-layer figures.
	jobSamples := samples
	if o.trace == 1 && o.workload == "optimize-cruise" {
		jobSamples, err = cruiseJobProbe(ctx, c, in)
		if err != nil {
			return nil, err
		}
	}
	srv.stop()

	lat := make([]float64, len(samples))
	for i, s := range samples {
		lat[i] = ms(s.latency)
	}
	// The reference runs took part of the window; throughput counts
	// only the time the operations took.
	busy := wall - refTotal
	raw, e2e := &report{}, &report{}
	raw.add("setup_s", medianOf(setups, time.Second), "s")
	raw.add("latency_p50_ms", percentile(lat, 50), "ms")
	raw.add("latency_p90_ms", percentile(lat, 90), "ms")
	raw.add("systems_per_s", float64(systems)/busy.Seconds(), "1/s")
	raw.add("cpu_ms_per_system", ms(cpu1-cpu0)/float64(systems), "ms")
	raw.add("peak_rss_mb", float64(hwm)/(1<<20), "MiB")
	scale := hostScale(refTimes)
	for _, n := range raw.names {
		m := raw.metrics[n]
		switch m.Unit {
		case "s", "ms":
			m.Value *= scale
		case "1/s":
			m.Value /= scale
		}
		e2e.add(n, m.Value, m.Unit)
	}

	// The correctness gate: the in-process portfolio must reproduce the
	// served results exactly, and no simulated response may exceed the
	// bound the analysis gave for the served configuration.
	opts := coreOptions(in.Tuning)
	race := o.workload == "optimize-cruise"
	rec := &recorder{}
	var runs []*portfolioRun
	var roots []*span
	for _, sys := range in.Systems {
		root := rec.start(nil, "system")
		root.set("system", sys.Name)
		pr, err := runPortfolio(ctx, sys, opts, race, rec, root)
		root.finish()
		if err != nil {
			return nil, err
		}
		runs, roots = append(runs, pr), append(roots, root)
	}
	local := make([]outcome, len(runs))
	for i, pr := range runs {
		local[i] = pr.outcome
	}
	for _, d := range compareOutcomes(local, served) {
		fail("served result differs from the in-process run:\n%s", d)
	}
	if refs[0].config != nil {
		same, err := sameConfig(in.Systems[0], runs[0].best.Config, refs[0].config)
		if err != nil {
			return nil, err
		}
		if !same {
			fail("served best configuration differs from the in-process one")
		}
	}
	for i, pr := range runs {
		bad, err := checkBounds(in.Systems[i], pr.best.Config, opts)
		if err != nil {
			fail("soundness check: %v", err)
		}
		for _, b := range bad {
			fail("unsound bound: %s", b)
		}
	}
	if len(problems) > 0 {
		// A wrong reference makes every operation that matched it wrong.
		failed = attempted
	}

	info := runInfo(o, len(samples), attempted, failed)
	fmt.Fprintln(stdout, info)
	raw.print(stdout, "end-to-end (tracing off), as measured:")
	fmt.Fprintf(stdout, "host reference: median %.3f ms over %d runs, times scaled by %.4f to the nominal %v\n",
		medianOf(refTimes, time.Millisecond), len(refTimes), scale, refNominal)
	e2e.print(stdout, "end-to-end (tracing off), at nominal host speed:")
	fmt.Fprintf(stdout, "  error_rate\t%.6g\tratio\n", float64(failed)/float64(attempted))
	for _, p := range problems {
		fmt.Fprintln(stderr, "e2ebench: correctness:", p)
	}
	res := &result{Correct: len(problems) == 0, Attempted: attempted, Failed: failed, Metrics: e2e.metrics}
	if o.trace == 0 {
		return res, nil
	}

	layers, err := tracedRun(ctx, stdout, o, in, opts, rec, runs, roots, samples, jobSamples)
	if err != nil {
		return nil, err
	}
	layers.print(stdout, "per layer (traced run, serve and jobs from the main run):")
	fmt.Fprintln(stdout, "self time per layer (traced run; campaign holds the engine's evaluations for the optimisers, the replay splits them into sched and analysis):")
	writeSelfTable(stdout, rec.layerSelfTimes())
	path := filepath.Join(o.workDir, fmt.Sprintf("trace-%s-seed%d.jsonl", o.workload, o.seed))
	if err := writeSpans(rec, path); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "spans: %s (render with: go run ./cmd/flexray-bench trace -in %s)\n", path, path)
	res.Metrics = layers.metrics
	return res, nil
}

// cruiseJobProbe submits three campaign jobs holding the cruise system.
func cruiseJobProbe(ctx context.Context, c *client, in *input) ([]sample, error) {
	body, err := campaignBody([]json.RawMessage{in.Raw[0]})
	if err != nil {
		return nil, err
	}
	var out []sample
	for i := 0; i < 3; i++ {
		s, err := jobOp(ctx, c, body)
		if err != nil {
			return nil, fmt.Errorf("cruise job probe: %w", err)
		}
		out = append(out, s)
	}
	return out, nil
}

func writeSpans(rec *recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.writeJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runInfo describes the build and machine beside the results.
func runInfo(o options, n, attempted, failed int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload %s, seed %d, %d s window: %d operations measured (%d attempted, %d failed)\n",
		o.workload, o.seed, o.seconds, n, attempted, failed)
	if p := tailPercentile(n); p < 90 {
		fmt.Fprintf(&b, "warning: latency_p90_ms rests on fewer than %d samples beyond it; p%d is the highest percentile that does not\n", minTail, p)
	}
	fmt.Fprintf(&b, "nproc %d, GOMAXPROCS %d", runtime.NumCPU(), runtime.GOMAXPROCS(0))
	if bi, err := buildinfo.ReadFile(o.serverBin); err == nil {
		fmt.Fprintf(&b, ", flexray-serve built by %s", bi.GoVersion)
		for _, s := range bi.Settings {
			if s.Key == "-pgo" || s.Key == "-gcflags" || s.Key == "-ldflags" || s.Key == "-tags" || s.Key == "GOAMD64" || s.Key == "CGO_ENABLED" {
				fmt.Fprintf(&b, " %s=%s", s.Key, s.Value)
			}
		}
	}
	return b.String()
}

// tracedRun computes the per-layer metrics: the replay split and the
// portfolio figures in-process, serve and jobs from the main run.
func tracedRun(ctx context.Context, w io.Writer, o options, in *input, opts core.Options, rec *recorder,
	runs []*portfolioRun, roots []*span, samples, jobSamples []sample) (*report, error) {
	// The layer split covers the systems of the first body.
	traced := in.systemsOf(0)
	n := float64(len(traced))
	var portfolio, decode time.Duration
	algMs := map[string]time.Duration{}
	algSelf := map[string]time.Duration{}
	algEvals := map[string]int{}
	var hits, misses, evals int64
	var st replayStats

	for i, sys := range traced {
		pr := runs[i]
		if o.workload == "optimize-cruise" {
			// Repeat the racing portfolio and keep the median figures.
			reps := []*portfolioRun{pr}
			for r := 1; r < cruiseTracedReps; r++ {
				root := rec.start(nil, "system")
				root.set("system", sys.Name)
				again, err := runPortfolio(ctx, sys, opts, true, rec, root)
				root.finish()
				if err != nil {
					return nil, err
				}
				reps = append(reps, again)
			}
			pr = medianRun(reps)
		}
		portfolio += pr.wall
		for _, a := range algorithms {
			algMs[a.name] += pr.algWall[a.name]
			algSelf[a.name] += pr.algWall[a.name] - pr.inHook[a.name]
		}
		for _, r := range pr.outcome.Runs {
			algEvals[r.Algorithm] += r.Evaluations
		}
		hits += pr.engine.CacheHits
		misses += pr.engine.CacheMisses
		evals += pr.engine.Evaluations

		d, err := timeDecode(in.Raw[i], rec, roots[i])
		if err != nil {
			return nil, err
		}
		decode += d
		st.merge(replay(sys, opts, pr.stream, rec, roots[i]))
	}

	var serverSys []time.Duration
	over := make([]time.Duration, len(samples))
	for i, s := range samples {
		over[i] = s.latency - s.serverTime
		serverSys = append(serverSys, s.serverSys...)
	}
	var submit, queue, runT, notify []time.Duration
	for _, s := range jobSamples {
		submit = append(submit, s.submit)
		queue = append(queue, s.queueWait)
		runT = append(runT, s.runTime)
		notify = append(notify, s.notify)
	}

	r := &report{}
	r.add("serve.overhead_ms", medianOf(over, time.Millisecond), "ms")
	r.add("serve.submit_ms", medianOf(submit, time.Millisecond), "ms")
	r.add("jobs.queue_wait_ms", medianOf(queue, time.Millisecond), "ms")
	r.add("jobs.run_ms", medianOf(runT, time.Millisecond), "ms")
	r.add("jobs.notify_ms", medianOf(notify, time.Millisecond), "ms")
	r.add("model.decode_us", float64(decode)/n/float64(time.Microsecond), "us")
	r.add("campaign.portfolio_ms", ms(portfolio)/n, "ms")
	r.add("campaign.cache_hit_ratio", float64(hits)/float64(max(1, hits+misses)), "ratio")
	r.add("campaign.evals", float64(evals)/n, "count")
	for _, a := range algorithms {
		k := "core." + strings.ToLower(a.name)
		r.add(k+".ms", ms(algMs[a.name])/n, "ms")
		r.add(k+".evals", float64(algEvals[a.name])/n, "count")
		r.add(k+".self_ms", ms(algSelf[a.name])/n, "ms")
	}
	r.add("core.eval_us", st.eval.meanUs(), "us")
	r.add("core.eval_allocs", st.eval.allocsPerCall(), "allocs")
	r.add("sched.build_table_us", st.build.meanUs(), "us")
	r.add("sched.build_table_allocs", st.build.allocsPerCall(), "allocs")
	r.add("analysis.run_us", st.analyse.meanUs(), "us")
	r.add("analysis.run_allocs", st.analyse.allocsPerCall(), "allocs")
	r.add("analysis.dyn_bus_cycles", float64(st.busCycles)/float64(max(1, st.analyse.calls)), "count")
	r.add("analysis.nonconverged_ratio", float64(st.nonConverged)/float64(max(1, st.analyse.calls)), "ratio")
	r.add("trace.overhead_ms", ms(portfolio)/n-medianOf(serverSys, time.Millisecond), "ms")
	split := float64(st.build.total + st.analyse.total)
	fmt.Fprintf(w, "evaluation split (replay): table construction %.1f%%, analysis %.1f%%\n",
		100*float64(st.build.total)/split, 100*float64(st.analyse.total)/split)
	return r, nil
}

// medianRun picks the repetition with the median portfolio wall time.
func medianRun(reps []*portfolioRun) *portfolioRun {
	walls := make([]float64, len(reps))
	for i, r := range reps {
		walls[i] = float64(r.wall)
	}
	m := percentile(walls, 50)
	for _, r := range reps {
		if float64(r.wall) == m {
			return r
		}
	}
	return reps[0]
}

// decodeReps is how often one system is decoded; the median is kept.
const decodeReps = 5

// timeDecode times model.ReadJSON plus Validate on one uploaded system.
func timeDecode(raw []byte, rec *recorder, parent *span) (time.Duration, error) {
	sp := rec.start(parent, "model.decode")
	defer sp.finish()
	ds := make([]time.Duration, decodeReps)
	for i := range ds {
		t := time.Now()
		sys, err := model.ReadJSON(bytes.NewReader(raw))
		if err == nil {
			err = sys.Validate()
		}
		ds[i] = time.Since(t)
		if err != nil {
			return 0, fmt.Errorf("decoding an uploaded system: %w", err)
		}
	}
	d := time.Duration(medianOf(ds, time.Nanosecond))
	sp.set("median_us", float64(d)/float64(time.Microsecond))
	return d, nil
}

// recordGolden serves the default-seed input of every workload once and
// writes the results and input hashes to goldenFile.
func recordGolden(ctx context.Context, o options) error {
	srv, _, err := startServer(ctx, o.serverBin, o.workDir)
	if err != nil {
		return err
	}
	defer srv.stop()
	c := newClient(srv.base)
	defer c.close()
	out := map[string]golden{}
	for _, w := range workloads {
		in, err := makeInput(w, defaultSeed)
		if err != nil {
			return err
		}
		_, all, err := doAll(ctx, c, w, in)
		if err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		out[w] = golden{InputSHA256: in.hash(), Systems: all}
	}
	return writeGolden(out)
}
