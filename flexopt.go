package flexopt

import (
	"context"
	"io"

	"repro/internal/analysis"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/cruise"
	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/units"
)

// Time and duration handling (integer nanoseconds).
type (
	// Duration is a span of simulated time in nanoseconds.
	Duration = units.Duration
	// Time is an absolute instant of simulated time.
	Time = units.Time
)

// Common duration units.
const (
	Nanosecond  = units.Nanosecond
	Microsecond = units.Microsecond
	Millisecond = units.Millisecond
	Second      = units.Second
)

// Microseconds converts (possibly fractional) microseconds to a
// Duration.
func Microseconds(us float64) Duration { return units.Microseconds(us) }

// Milliseconds converts (possibly fractional) milliseconds to a
// Duration.
func Milliseconds(ms float64) Duration { return units.Milliseconds(ms) }

// Application model.
type (
	// System is an application mapped onto a platform of nodes
	// connected by one FlexRay bus.
	System = model.System
	// Builder assembles systems programmatically.
	Builder = model.Builder
	// Activity is a task or message vertex of a task graph.
	Activity = model.Activity
	// ActID identifies an activity within a system.
	ActID = model.ActID
	// NodeID identifies a processing node.
	NodeID = model.NodeID
)

// Scheduling policies and message classes.
const (
	// SCS marks static cyclic scheduled (time-triggered) tasks.
	SCS = model.SCS
	// FPS marks fixed-priority scheduled (event-triggered) tasks.
	FPS = model.FPS
	// ST marks static-segment messages.
	ST = model.ST
	// DYN marks dynamic-segment messages.
	DYN = model.DYN
)

// NewBuilder starts a new system description with the given name and
// number of nodes.
func NewBuilder(name string, numNodes int) *Builder { return model.NewBuilder(name, numNodes) }

// ReadSystem parses a system from its JSON interchange format.
func ReadSystem(r io.Reader) (*System, error) { return model.ReadJSON(r) }

// Bus configuration.
type (
	// Config is a complete FlexRay bus access configuration: the
	// object the optimisers search for.
	Config = flexray.Config
	// BusParams are physical-layer constants (gdBit, macrotick).
	BusParams = flexray.Params
	// LatestTxPolicy selects the dynamic-segment admission rule.
	LatestTxPolicy = flexray.LatestTxPolicy
)

// Latest-transmission policies.
const (
	// LatestTxPerFrame admits a dynamic frame iff it fits the
	// remaining segment (the paper's Fig. 4 semantics; default).
	LatestTxPerFrame = flexray.LatestTxPerFrame
	// LatestTxPerNode uses the specification's per-node pLatestTx.
	LatestTxPerNode = flexray.LatestTxPerNode
)

// DefaultBusParams returns a 10 Mbit/s channel with a 1 µs macrotick.
func DefaultBusParams() BusParams { return flexray.DefaultParams() }

// Optimisation.
type (
	// Options tune the optimisers; see DefaultOptions.
	Options = core.Options
	// Result is the outcome of an optimisation run.
	Result = core.Result
)

// DefaultOptions returns the options used by the paper-reproduction
// experiments.
func DefaultOptions() Options { return core.DefaultOptions() }

// BBC computes the Basic Bus Configuration (paper Fig. 5).
func BBC(sys *System, opts Options) (*Result, error) { return core.BBC(sys, opts) }

// OBCCF runs the Optimised Bus Configuration heuristic with
// curve-fitting dynamic-segment sizing (paper Fig. 6 + Fig. 8).
func OBCCF(sys *System, opts Options) (*Result, error) { return core.OBCCF(sys, opts) }

// OBCEE runs the OBC heuristic with exhaustive dynamic-segment
// exploration.
func OBCEE(sys *System, opts Options) (*Result, error) { return core.OBCEE(sys, opts) }

// SA runs the simulated-annealing baseline explorer.
func SA(sys *System, opts Options) (*Result, error) { return core.SA(sys, opts) }

// AssignFrameIDs performs the criticality-driven unique FrameID
// assignment of the paper's Fig. 5 line 1 (Eq. 4).
func AssignFrameIDs(sys *System) (map[ActID]int, error) { return core.AssignFrameIDs(sys) }

// Analysis and scheduling.
type (
	// ScheduleTable is the static schedule: SCS task start times and
	// ST message slot assignments.
	ScheduleTable = schedule.Table
	// AnalysisResult carries worst-case response times, jitters and
	// the Eq. (5) cost of one configuration.
	AnalysisResult = analysis.Result
	// SchedOptions tune the global scheduling algorithm.
	SchedOptions = sched.Options
)

// BuildSchedule runs the global scheduling algorithm (paper Fig. 2) for
// a fixed configuration and returns the schedule table plus the
// holistic analysis of the resulting system.
func BuildSchedule(sys *System, cfg *Config, opts SchedOptions) (*ScheduleTable, *AnalysisResult, error) {
	return sched.Build(sys, cfg, opts)
}

// EvalSession is a reusable evaluation pipeline for one system: a
// resettable holistic analyzer plus a geometry-keyed schedule-table
// memo. Evaluating candidate configurations through one session is
// bit-identical to BuildSchedule but avoids rebuilding the
// system-dependent analysis state — and, for candidates sharing a slot
// geometry, the schedule table — on every call. Sessions are what the
// optimisers and the campaign engine workers use internally; create
// one directly when driving many analyses of the same system yourself.
// Cache invalidation works from value snapshots, so mutating a Config
// between Eval calls (tweak-and-re-evaluate loops) is fine; a session
// is not safe for concurrent use.
type EvalSession = core.Session

// NewEvalSession builds an evaluation session for one system.
func NewEvalSession(sys *System, opts SchedOptions) *EvalSession {
	return core.NewSession(sys, opts)
}

// DefaultSchedOptions returns first-fit placement with default
// analysis.
func DefaultSchedOptions() SchedOptions { return sched.DefaultOptions() }

// Simulation.
type (
	// SimOptions tune the discrete-event simulation.
	SimOptions = sim.Options
	// SimResult aggregates observed response times and the bus
	// trace.
	SimResult = sim.Result
	// TraceEvent is one bus-level occurrence of the trace.
	TraceEvent = sim.TraceEvent
)

// DefaultSimOptions simulates one hyper-period with a generous drain.
func DefaultSimOptions() SimOptions { return sim.DefaultOptions() }

// Simulate runs the discrete-event simulator for a configured system.
func Simulate(sys *System, cfg *Config, table *ScheduleTable, opts SimOptions) (*SimResult, error) {
	s, err := sim.New(sys, cfg, table, opts)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// Workload generation.
type GenParams = synth.Params

// DefaultGenParams returns the paper's Section 7 population parameters
// for the given node count and seed.
func DefaultGenParams(nodes int, seed int64) GenParams { return synth.DefaultParams(nodes, seed) }

// Generate builds one random system from the Section 7 population.
func Generate(p GenParams) (*System, error) { return synth.Generate(p) }

// CruiseController returns the paper's real-life case study: 54 tasks
// and 26 messages in 4 task graphs over 5 nodes.
func CruiseController() (*System, error) { return cruise.System() }

// Concurrent campaign engine.
type (
	// EngineOptions tune the worker-pool evaluation engine; the
	// zero value selects GOMAXPROCS workers and the default cache.
	EngineOptions = campaign.EngineOptions
	// EngineStats report evaluations and cache traffic of one
	// engine.
	EngineStats = campaign.EngineStats
	// AlgoRun is the per-algorithm telemetry of a portfolio or
	// campaign run.
	AlgoRun = campaign.AlgoRun
	// PortfolioResult is the outcome of racing the optimiser
	// portfolio on one system.
	PortfolioResult = campaign.PortfolioResult
	// CampaignOptions tune a population sweep.
	CampaignOptions = campaign.Options
	// CampaignRecord is the streamed result of one system of a
	// campaign.
	CampaignRecord = campaign.Record
)

// PortfolioAlgorithms returns the canonical optimiser portfolio
// ("BBC", "OBC-CF", "OBC-EE", "SA").
func PortfolioAlgorithms() []string {
	return append([]string(nil), campaign.Algorithms...)
}

// Portfolio races the requested optimisers (default: the full
// portfolio) concurrently on one system over a shared caching
// evaluation engine and returns the best result plus per-algorithm
// telemetry. Results are identical for any worker count; cancelling
// ctx aborts the race.
func Portfolio(ctx context.Context, sys *System, opts Options, eng EngineOptions, algorithms ...string) (*PortfolioResult, error) {
	return campaign.Portfolio(ctx, sys, opts, eng, algorithms...)
}

// Campaign shards a generated population across workers and calls emit
// with one record per system, in spec order. Records are independent
// per system, so the output is deterministic for any worker count.
func Campaign(ctx context.Context, specs []GenParams, opts Options, copts CampaignOptions, emit func(CampaignRecord) error) error {
	return campaign.Run(ctx, specs, opts, copts, emit)
}

// CampaignJSONL runs a campaign and streams every record as one JSON
// line to w, returning the records for in-process aggregation.
func CampaignJSONL(ctx context.Context, specs []GenParams, opts Options, copts CampaignOptions, w io.Writer) ([]CampaignRecord, error) {
	return campaign.WriteJSONL(ctx, specs, opts, copts, w)
}

// PopulationSpecs builds the paper's Section 7 evaluation population:
// for each node count, apps systems seeded deterministically from
// seed. A positive deadlineFactor overrides the generator default.
func PopulationSpecs(nodeCounts []int, apps int, seed int64, deadlineFactor float64) []GenParams {
	return campaign.PopulationSpecs(nodeCounts, apps, seed, deadlineFactor)
}

// CampaignSystems is Campaign over an explicit, pre-built population —
// systems constructed with Builder or parsed from JSON instead of
// generator parameters — with the same sharding, ordering and
// determinism guarantees.
func CampaignSystems(ctx context.Context, systems []*System, opts Options, copts CampaignOptions, emit func(CampaignRecord) error) error {
	return campaign.RunSystems(ctx, systems, opts, copts, emit)
}
