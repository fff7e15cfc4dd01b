package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
)

func readGolden(t *testing.T) map[string]golden {
	t.Helper()
	b, err := os.ReadFile("golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var g map[string]golden
	if err := json.Unmarshal(b, &g); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGoldenCruiseMatchesPublishedRun pins the cruise goldens to the
// costs and evaluation counts the repository documents for the default
// portfolio on the case study.
func TestGoldenCruiseMatchesPublishedRun(t *testing.T) {
	g := readGolden(t)["optimize-cruise"]
	want := []outcome{{Name: "cruise-controller", Best: "OBC-EE", Runs: []algoOutcome{
		{"BBC", 3884, 64, false},
		{"OBC-CF", -1538672, 196, true},
		{"OBC-EE", -1541101, 576, true},
		{"SA", 21567, 2001, false},
	}}}
	if d := compareOutcomes(want, g.Systems); len(d) > 0 {
		t.Errorf("cruise golden:\n%v", d)
	}
}

func TestCompareOutcomes(t *testing.T) {
	base := []outcome{
		{Name: "a", Best: "SA", Runs: []algoOutcome{{"BBC", 10, 1, false}, {"SA", 5.25, 40, false}}},
		{Name: "b", Best: "BBC", Runs: []algoOutcome{{"BBC", -3, 1, true}}},
	}
	clone := func() []outcome {
		out := slices.Clone(base)
		for i := range out {
			out[i].Runs = slices.Clone(out[i].Runs)
		}
		return out
	}
	if d := compareOutcomes(base, clone()); len(d) != 0 {
		t.Errorf("identical outcomes differ: %v", d)
	}

	ulp := clone()
	ulp[0].Runs[1].Cost = math.Nextafter(5.25, 6) // costs compare exactly
	evals := clone()
	evals[1].Runs[0].Evaluations = 2
	best := clone()
	best[0].Best = "BBC"
	for name, got := range map[string][]outcome{"one ulp": ulp, "evaluations": evals, "winner": best} {
		if d := compareOutcomes(base, got); len(d) != 1 {
			t.Errorf("%s: %d differences, want 1", name, len(d))
		}
	}
	if d := compareOutcomes(base, base[:1]); len(d) != 1 {
		t.Errorf("missing system: %d differences, want 1", len(d))
	}
}

// TestInputsPinned fails when the generators or the system encoding
// change what the benchmark sends at the default seed.
func TestInputsPinned(t *testing.T) {
	g := readGolden(t)
	for _, w := range workloads {
		in, err := makeInput(w, defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		if h := in.hash(); h != g[w].InputSHA256 {
			t.Errorf("%s: input sha256 %s, golden.json pins %s", w, h, g[w].InputSHA256)
		}
		again, err := makeInput(w, defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		other, err := makeInput(w, defaultSeed+1)
		if err != nil {
			t.Fatal(err)
		}
		if again.hash() != in.hash() {
			t.Errorf("%s: the same seed gave different inputs", w)
		}
		if other.hash() == in.hash() {
			t.Errorf("%s: another seed gave the same input", w)
		}
		if len(g[w].Systems) != len(in.Systems) {
			t.Errorf("%s: golden.json holds %d systems, the input %d", w, len(g[w].Systems), len(in.Systems))
		}
	}
}
