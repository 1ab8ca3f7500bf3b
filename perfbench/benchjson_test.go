package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json at the repository root must describe exactly the
// workloads and metrics this program runs and prints.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", spec.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q malformed or used twice", n)
		}
		seen[n] = true
	}

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why %d chars), program has %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d printed", len(spec.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range spec.EndToEnd {
		checkName(m.Name)
		want := endToEndMetrics[i]
		if m.Name != want.name || m.Unit != want.unit || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %d: %+v, program prints %s in %s", i, m, want.name, want.unit)
		}
	}
	layers := map[string]string{}
	for _, m := range layerMetricNames() {
		layers[m.name] = m.unit
	}
	if len(spec.PerLayer) != len(layers) {
		t.Errorf("%d per-layer metrics in BENCHMARK.json, %d printed", len(spec.PerLayer), len(layers))
	}
	for _, m := range spec.PerLayer {
		checkName(m.Name)
		if unit, ok := layers[m.Name]; !ok || unit != m.Unit {
			t.Errorf("per_layer %s in %s: program prints it in %q (printed: %v)", m.Name, m.Unit, unit, ok)
		}
	}
}
