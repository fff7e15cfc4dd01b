// Package flexopt is a library for designing and optimising the bus
// access configuration of FlexRay-based distributed hard real-time
// systems. It reproduces, as a complete working system, the approach of
//
//	T. Pop, P. Pop, P. Eles, Z. Peng,
//	"Bus Access Optimisation for FlexRay-based Distributed Embedded
//	Systems", DATE 2007, DOI 10.1109/DATE.2007.364566,
//
// together with the substrates that paper builds on: the holistic
// schedulability analysis for FlexRay (ECRTS 2006), the hierarchical
// static-cyclic/fixed-priority scheduling model (RTCSA 2005), and a
// discrete-event simulator of the whole protocol.
//
// # Model
//
// Applications are sets of directed acyclic task graphs whose vertices
// are tasks (mapped on processing nodes) and messages (transmitted over
// a single FlexRay bus). Tasks are either statically scheduled (SCS,
// offline-fixed start times) or fixed-priority scheduled (FPS, running
// preemptively in the slack of the static schedule); messages travel
// either in the static segment (ST, schedule-table driven GTDMA slots)
// or the dynamic segment (DYN, FTDMA minislot arbitration). Build
// systems with NewBuilder, load them from JSON with ReadSystem, or
// generate random populations with Generate.
//
// # Optimisation
//
// A Config fixes the six design variables of the paper's Section 6:
// static slot length, static slot count, slot-to-node assignment,
// dynamic segment length, and the FrameID assignment of DYN messages.
// Four optimisers search this space:
//
//   - BBC: the minimal Basic Bus Configuration (fast, often
//     unschedulable for larger systems);
//   - OBCCF: the Optimised Bus Configuration heuristic with
//     curve-fitting based dynamic-segment sizing (the paper's main
//     contribution);
//   - OBCEE: OBC with exhaustive dynamic-segment exploration (slower,
//     marginally better);
//   - SA: a simulated-annealing explorer used as evaluation baseline.
//
// Every candidate configuration is evaluated by constructing the full
// static schedule (list scheduling with a critical-path priority) and
// running the holistic schedulability analysis; the cost function is
// the paper's Eq. (5) schedulability degree.
//
// # Evaluation pipeline
//
// Candidate evaluation — the hot path of every optimiser — runs on
// reusable evaluation sessions (EvalSession) rather than rebuilding the
// stack per candidate. A session owns a resettable holistic analyzer
// whose system-dependent state (priority lists, message sets,
// topological orders) is computed once, whose configuration- and
// table-derived caches are invalidated only when the inputs they
// depend on change (DYN interference environments survive any change
// that keeps the FrameID assignment and minislot length; availability
// functions are memoised on the schedule table itself), and whose
// fixpoint scratch buffers are pooled across runs. With first-fit
// placement the schedule table depends only on the slot geometry, so
// sessions additionally memoise tables by geometry and FrameID-only
// moves (the simulated-annealing neighbourhood) skip table
// construction entirely; a table that must be built comes from a list
// scheduler that keeps its ready list in a binary heap, so each pick
// costs O(log n) in the ready activity instances instead of a sort,
// and its table in slices indexed by node and activity. Sessions are
// bit-identical to the from-scratch pipeline — BuildSchedule plus a
// single-use analyzer — which the test-suite pins by replaying
// shuffled candidate streams of all four algorithms through one
// session.
//
// # Validation
//
// Simulate runs a discrete-event simulation of the configured system —
// kernels, CHI buffers and the bus automaton — and reports observed
// response times, which are validated against the analysis bounds in
// this repository's test-suite (and reproduce the paper's Fig. 1, 3, 4
// examples cycle by cycle).
//
// # Campaigns and serving
//
// The campaign layer scales the optimisers from one goroutine to the
// whole machine. Every optimiser spends its budget on one pure
// operation — schedule build plus holistic analysis of a candidate
// configuration — and the engine behind EngineOptions parallelises
// exactly that: independent sweep candidates fan across a worker pool
// whose workers each pin their own evaluation session, results are
// memoised in a bounded LRU cache keyed on the configuration
// fingerprint and sharded into power-of-two lock domains scaled to the
// worker count, and a context cancels in-flight work. Because
// evaluations are pure, results are bit-identical at any worker count.
//
// Portfolio races BBC, OBC-CF, OBC-EE and SA concurrently on one
// system over a shared engine (the cheap heuristics warm the cache
// for the expensive ones) and returns the best Result plus
// per-algorithm telemetry. Campaign and CampaignJSONL shard a
// generated population — PopulationSpecs builds the paper's
// Section 7 sets — across workers and stream per-system records in
// deterministic order; CampaignSystems does the same over an explicit,
// pre-built population. The Fig. 7 and Fig. 9 experiment sweeps run on
// this engine.
//
// # Serving, jobs and performance tracking
//
// The facade stops at the optimisation pipeline. The layers built on
// it live in internal packages and are reached through the commands:
// cmd/flexray-serve exposes the pipeline as a JSON HTTP service —
// POST /v1/optimize, /v1/analyze and /v1/simulate synchronously, the
// durable asynchronous job subsystem (internal/jobs: campaigns,
// sweeps and portfolio optimisations with progress streams,
// retention and store compaction) under /v1/jobs, and the lint policy
// engine (internal/lint) under /v1/lint and the flexray-lint CLI.
// `flexray-bench perf` drives the performance-regression harness
// (internal/perfreg) that produces the committed BENCH_<seq>.json
// trajectory. OPERATIONS.md is the operator-facing guide.
package flexopt
