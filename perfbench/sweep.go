package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"leosim"
	"leosim/internal/aircraft"
	"leosim/internal/constellation"
	"leosim/internal/ground"
)

// simScale is the reduced scale with the run's generated sweep inputs.
func simScale(in inputs) leosim.Scale {
	sc := leosim.ReducedScale()
	sc.Seed = in.SimSeed
	sc.NumPairs = in.Pairs
	return sc
}

// setUpSim builds the in-process sim. A traced run first times the land
// mask on its own (it is rasterised once per process, on the first IsLand
// call), so NewSim then pays everything else.
func setUpSim(rep *report, in inputs) (*leosim.Sim, error) {
	if rep.traced {
		t0 := time.Now()
		ground.IsLand(0, 0)
		d := time.Since(t0)
		rep.layer["ground.landmask_ms"] = ms(d)
		rep.spans.add("setup_landmask", d)
		rep.setupSim += d
	}
	t0 := time.Now()
	sim, err := leosim.NewSim(leosim.Starlink, simScale(in))
	d := time.Since(t0)
	rep.spans.add("setup_sim", d)
	rep.setupSim += d
	if err != nil {
		return nil, err
	}
	if rep.traced {
		rep.spans.time("setup_components", func() { timeSetupComponents(rep, sim) })
	}
	return sim, nil
}

// timeSetupComponents re-runs each set-up constructor NewSim calls, timed
// from outside, once the sim exists. The land mask is already built, so
// ground.segment_ms is the relay grid and terminal placement alone.
func timeSetupComponents(rep *report, sim *leosim.Sim) {
	sc := sim.Scale
	timeInto(rep, "ground.cities_ms", func() error { _, err := ground.Cities(sc.NumCities); return err })
	timeInto(rep, "ground.segment_ms", func() error {
		_, err := ground.NewSegment(sim.Cities, sc.RelaySpacingDeg, sc.RelayMaxKm)
		return err
	})
	timeInto(rep, "aircraft.fleet_ms", func() error { _, err := aircraft.NewFleet(sc.AircraftDensity); return err })
	timeInto(rep, "constellation.new_ms", func() error {
		_, err := constellation.New([]constellation.Shell{constellation.StarlinkPhase1()}, constellation.WithISLs())
		return err
	})
	timeInto(rep, "core.sample_pairs_ms", func() error {
		_, err := leosim.SamplePairs(sim.Cities, sc.NumPairs, sc.MinPairKm, sc.Seed)
		return err
	})
}

func timeInto(rep *report, name string, f func() error) {
	t0 := time.Now()
	if err := f(); err != nil {
		rep.fail(fmt.Sprintf("%s: %v", name, err))
	}
	rep.layer[name] = ms(time.Since(t0))
}

// sweepKey and churnKey name a pinned digest by the inputs it depends on.
func sweepKey(exp string, in inputs) string {
	return fmt.Sprintf("%s/seed=%d/pairs=%d", exp, in.SimSeed, in.Pairs)
}

func churnKey(in inputs) string {
	return fmt.Sprintf("churn/seed=%d/pairs=%d/start=%s/window=%s", in.SimSeed, in.Pairs, in.ChurnStart, in.ChurnWindow)
}

// sweepPasses is how many times a run repeats the experiments; each
// reported wall clock is the median over the passes.
const sweepPasses = 3

// runExperiments runs every experiment sweepPasses times, interleaved, and
// checks each result's data against its pinned digest (skipped when refs is
// nil). The first pass runs on sim, which runExperiments takes over: the
// caller must keep no reference to it. Every later pass starts from a
// freshly built sim with the previous one released and the heap collected,
// so each pass pays the same cold snapshot builds on the same heap. It
// returns the last pass's sim and the digests computed.
func runExperiments(ctx context.Context, rep *report, sim *leosim.Sim, in inputs, refs references) (*leosim.Sim, map[string]string, error) {
	got := map[string]string{}
	times := map[string][]float64{}
	for pass := 0; pass < sweepPasses; pass++ {
		if pass > 0 {
			var err error
			rep.spans.time("sweep_prep", func() {
				sim = nil
				runtime.GC()
				sim, err = leosim.NewSim(leosim.Starlink, simScale(in))
			})
			if err != nil {
				return nil, nil, err
			}
		}
		for _, e := range experiments(ctx, sim, in) {
			rep.attempted++
			t0 := time.Now()
			data, err := e.run()
			d := time.Since(t0)
			rep.spans.add(e.name, d)
			times[e.name] = append(times[e.name], d.Seconds())
			if err == nil {
				var digest string
				if digest, err = digestJSON(data); err == nil {
					if prev, ok := got[e.key]; ok && prev != digest {
						err = fmt.Errorf("output differs between passes: %s then %s", prev, digest)
					} else if got[e.key] = digest; refs != nil {
						err = refs.check(e.key, digest)
					}
				}
			}
			if err != nil {
				rep.fail(fmt.Sprintf("%s: %v", e.name, err))
			}
		}
	}
	rep.fig2a, rep.fig4, rep.fig6, rep.churn = median(times["fig2a"]), median(times["fig4"]), median(times["fig6"]), median(times["churn"])
	return sim, got, nil
}

type experiment struct {
	name, key string
	run       func() (any, error)
}

// experiments are the timed Run* calls, in run order.
func experiments(ctx context.Context, sim *leosim.Sim, in inputs) []experiment {
	return []experiment{
		{"fig2a", sweepKey("fig2a", in), func() (any, error) { return leosim.RunLatency(ctx, sim) }},
		{"fig4", sweepKey("fig4", in), func() (any, error) { return leosim.RunFig4(ctx, sim) }},
		{"fig6", sweepKey("fig6", in), func() (any, error) { return leosim.RunWeather(ctx, sim) }},
		{"churn", churnKey(in), func() (any, error) {
			return leosim.RunChurn(ctx, sim, leosim.ChurnOptions{
				Start:  leosim.Epoch.Add(in.ChurnStart),
				Step:   time.Second,
				Window: in.ChurnWindow,
			})
		}},
	}
}
