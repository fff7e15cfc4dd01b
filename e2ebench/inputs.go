package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/cruise"
	"repro/internal/model"
	"repro/internal/synth"
)

// defaultSeed is the seed whose inputs and results are pinned in
// golden.json.
const defaultSeed = 1

// A campaign-tt run cycles through ttJobs different jobs of ttSystems
// systems each. A job of 24 takes about 0.3 s on two CPUs, so a 50 s run
// holds well over the 100 jobs a p90 needs. The per-system cost varies by
// a factor of about 2.5 with the number of task instances; spreading a
// run over 144 systems keeps that variation from moving the figures from
// one seed to the next.
const (
	ttJobs    = 6
	ttSystems = 24
)

// tuning mirrors jobs.Tuning on the wire. The benchmark keeps its own
// copy, so the request bodies, and the hash pinned over them, do not
// follow edits to the server's types.
type tuning struct {
	DYNGridCap     int   `json:"dyn_grid_cap,omitempty"`
	SlotCountCap   int   `json:"slot_count_cap,omitempty"`
	SlotLenSteps   int   `json:"slot_len_steps,omitempty"`
	MaxEvaluations int   `json:"max_evaluations,omitempty"`
	SAIterations   int   `json:"sa_iterations,omitempty"`
	SASeed         int64 `json:"sa_seed,omitempty"`
}

// campaignTuning bounds the optimiser budgets of the campaign jobs so one
// system takes tens of milliseconds instead of seconds.
var campaignTuning = tuning{DYNGridCap: 12, SlotCountCap: 2, SlotLenSteps: 3, MaxEvaluations: 120, SAIterations: 40}

// input is everything one workload sends to the server, generated from a
// seed. Bodies are the exact request bodies, sent in turn; body i carries
// Systems[i*PerBody:(i+1)*PerBody]. Systems are the uploaded systems
// decoded again, as the server sees them, for the correctness gate and
// the traced run: the JSON round trip can move costs in the last bits.
type input struct {
	Bodies  [][]byte
	PerBody int
	Systems []*model.System
	Raw     [][]byte // per-system JSON, as uploaded
	Tuning  tuning
}

// hash is the content hash recorded in golden.json.
func (in *input) hash() string {
	h := sha256.New()
	for _, b := range in.Bodies {
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// systemsOf returns the systems body i carries.
func (in *input) systemsOf(i int) []*model.System {
	return in.Systems[i*in.PerBody : (i+1)*in.PerBody]
}

// makeInput builds a workload's input from the seed.
func makeInput(workload string, seed int64) (*input, error) {
	switch workload {
	case "optimize-cruise":
		return cruiseInput(seed)
	case "campaign-tt":
		return ttInput(seed)
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

// cruiseInput is the paper's cruise-controller case study with the full
// default portfolio. The seed only moves the annealer's PRNG: the other
// three optimisers are deterministic in the system.
func cruiseInput(seed int64) (*input, error) {
	gen, err := cruise.System()
	if err != nil {
		return nil, err
	}
	sys, raw, err := upload(gen)
	if err != nil {
		return nil, err
	}
	tn := tuning{SASeed: seed}
	body, err := json.Marshal(map[string]any{"system": json.RawMessage(raw), "options": tn})
	if err != nil {
		return nil, err
	}
	return &input{Bodies: [][]byte{body}, PerBody: 1, Systems: []*model.System{sys}, Raw: [][]byte{raw}, Tuning: tn}, nil
}

// ttParams describes one all time-triggered system: seven nodes of ten
// tasks, no event-triggered graph and so no DYN message, bus utilisation
// 0.50-0.70 and deadlines equal to periods. Table construction dominates
// the evaluation of such systems.
func ttParams(seed int64, i int) synth.Params {
	p := synth.DefaultParams(7, seed*1000+int64(i))
	p.TTShare = 1.0
	p.BusUtilMin, p.BusUtilMax = 0.50, 0.70
	p.DeadlineFactor = 1.0
	return p
}

// ttInput is ttJobs campaign jobs, each over an uploaded population of
// ttSystems generated systems.
func ttInput(seed int64) (*input, error) {
	in := &input{PerBody: ttSystems, Tuning: campaignTuning}
	for j := 0; j < ttJobs; j++ {
		var raws []json.RawMessage
		for i := j * ttSystems; i < (j+1)*ttSystems; i++ {
			gen, err := synth.Generate(ttParams(seed, i))
			if err != nil {
				return nil, fmt.Errorf("generating system %d: %w", i, err)
			}
			sys, raw, err := upload(gen)
			if err != nil {
				return nil, err
			}
			in.Systems = append(in.Systems, sys)
			in.Raw = append(in.Raw, raw)
			raws = append(raws, raw)
		}
		body, err := campaignBody(raws)
		if err != nil {
			return nil, err
		}
		in.Bodies = append(in.Bodies, body)
	}
	return in, nil
}

// campaignBody is a campaign job over uploaded systems, with the campaign
// tuning.
func campaignBody(systems []json.RawMessage) ([]byte, error) {
	return json.Marshal(map[string]any{
		"kind":       "campaign",
		"tuning":     campaignTuning,
		"population": map[string]any{"systems": systems},
	})
}

// upload encodes a system for the request and decodes it back.
func upload(gen *model.System) (*model.System, []byte, error) {
	var buf bytes.Buffer
	if err := gen.WriteJSON(&buf); err != nil {
		return nil, nil, fmt.Errorf("encoding %s: %w", gen.Name, err)
	}
	raw := bytes.TrimSpace(buf.Bytes())
	sys, err := model.ReadJSON(bytes.NewReader(raw))
	if err != nil {
		return nil, nil, fmt.Errorf("decoding %s: %w", gen.Name, err)
	}
	return sys, raw, nil
}
