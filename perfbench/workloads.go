package main

import (
	"fmt"
	"time"
)

// Every workload runs the same pipeline — set-up, paper sweeps, churn,
// serving — so every run reports every end-to-end metric. A workload names
// the input its seed draws; the other inputs stay at their defaults. The
// sweep and churn inputs draw from a small set of variants whose outputs are
// pinned in reference.json (the paper's default seed plus one held-out
// seed); the serving schedule can take any seed because each served answer
// is checked against a digest-pinned answer table. Why each workload was
// chosen is recorded in BENCHMARK.json.
type workload struct {
	name string
	// draw maps the seed onto this workload's inputs.
	draw func(seed int64, in *inputs)
}

var workloads = []workload{
	{
		name: "paper-sweep",
		draw: func(seed int64, in *inputs) { in.SimSeed = sweepSeeds[variant(seed, len(sweepSeeds))] },
	},
	{
		name: "churn-seconds",
		draw: func(seed int64, in *inputs) { in.ChurnStart = churnStarts[variant(seed, len(churnStarts))] },
	},
	{
		name: "serve-zipf",
		draw: func(seed int64, in *inputs) { in.ScheduleSeed = seed },
	},
}

// sweepSeeds are the traffic-matrix seeds with pinned outputs: the reduced
// scale's default and a held-out one.
var sweepSeeds = []int64{1, 20201104}

// churnStarts are the churn window offsets from the epoch with pinned
// outputs: the experiment's default window and a held-out one.
var churnStarts = []time.Duration{0, 7*time.Hour + 13*time.Minute}

// inputs are everything a run generates from its workload and seed.
type inputs struct {
	// SimSeed seeds the traffic matrix (Scale.Seed) of the in-process sim.
	SimSeed int64
	// Pairs is the traffic-matrix size of the sweeps.
	Pairs int
	// ChurnStart offsets the churn window from the epoch.
	ChurnStart time.Duration
	// ChurnWindow is the simulated span of the churn experiment (1 s steps).
	ChurnWindow time.Duration
	// ScheduleSeed draws the serving schedule.
	ScheduleSeed int64
}

func defaultInputs() inputs {
	return inputs{SimSeed: sweepSeeds[0], Pairs: 120, ChurnWindow: 5 * time.Second, ScheduleSeed: 1}
}

func (w workload) inputs(seed int64) inputs {
	in := defaultInputs()
	w.draw(seed, &in)
	return in
}

// variant maps any seed, negative ones included, onto [0, n).
func variant(seed int64, n int) int {
	v := int(seed % int64(n))
	if v < 0 {
		v += n
	}
	return v
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames())
}
