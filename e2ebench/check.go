package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/flexray"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/sim"
)

// goldenFile pins, per workload, the content hash of the input at the
// default seed and the served results on it.
const goldenFile = "e2ebench/golden.json"

type golden struct {
	InputSHA256 string    `json:"input_sha256"`
	Systems     []outcome `json:"systems"`
}

func loadGolden() (map[string]golden, error) {
	b, err := os.ReadFile(goldenFile)
	if err != nil {
		return nil, err
	}
	var g map[string]golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenFile, err)
	}
	return g, nil
}

func writeGolden(g map[string]golden) error {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenFile, append(b, '\n'), 0o644)
}

// compareOutcomes lists every system whose served outcome differs from
// the expected one. Costs and evaluation counts are compared exactly:
// the optimisers are deterministic.
func compareOutcomes(want, got []outcome) []string {
	var diffs []string
	if len(want) != len(got) {
		diffs = append(diffs, fmt.Sprintf("%d systems, want %d", len(got), len(want)))
	}
	for i := 0; i < min(len(want), len(got)); i++ {
		if !want[i].equal(got[i]) {
			diffs = append(diffs, fmt.Sprintf("got  %v\nwant %v", got[i], want[i]))
		}
	}
	return diffs
}

// checkBounds simulates one configuration and reports every activity
// whose observed response exceeds the analysed worst case: the paper's
// product is a bound the simulator must never beat.
func checkBounds(sys *model.System, cfg *flexray.Config, opts core.Options) ([]string, error) {
	table, ares, err := sched.Build(sys, cfg, opts.Sched)
	if err != nil {
		return nil, fmt.Errorf("%s: building the table of the best configuration: %w", sys.Name, err)
	}
	simulator, err := sim.New(sys, cfg, table, sim.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sys.Name, err)
	}
	sres, err := simulator.Run()
	if err != nil {
		return nil, fmt.Errorf("%s: simulating: %w", sys.Name, err)
	}
	var bad []string
	for id, observed := range sres.MaxResponse {
		if bound, ok := ares.R[id]; ok && observed > bound {
			bad = append(bad, fmt.Sprintf("%s: %s observed %v > analysed %v",
				sys.Name, sys.App.Act(id).Name, observed, bound))
		}
	}
	return bad, nil
}

// sameConfig reports whether a served configuration is the one the
// in-process run found, so the simulated configuration is the served one.
func sameConfig(sys *model.System, cfg *flexray.Config, served json.RawMessage) (bool, error) {
	var buf bytes.Buffer
	if err := cfg.WriteJSON(&buf, sys); err != nil {
		return false, err
	}
	var a, b bytes.Buffer
	if err := json.Compact(&a, buf.Bytes()); err != nil {
		return false, err
	}
	if err := json.Compact(&b, served); err != nil {
		return false, err
	}
	return bytes.Equal(a.Bytes(), b.Bytes()), nil
}
