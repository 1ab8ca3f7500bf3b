package main

import (
	"context"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"leosim/internal/telemetry"
)

// Serving load. A one-second warm-up at fixedRate comes first. The fixed
// phase then offers fixedRate for fixedShare of -seconds; its tails are
// taken over the pooled samples. The ladder then offers the rates
// ladderBase·ladderRatio^i, i ≤ ladderTop (2000/s up to ~18700/s), one probe
// of stepShare of -seconds per rung, from the bottom up until a rung fails.
const (
	warmupSecs  = 1.0
	fixedRate   = 1500.0
	fixedShare  = 0.6
	ladderBase  = 2000.0
	ladderRatio = 1.15
	ladderTop   = 16
	stepShare   = 0.04
	// abortLate ends a ladder probe early once a request is this late: the
	// rung has already failed and draining its backlog only burns time.
	abortLate = 250 * time.Millisecond
)

// serveLimits are the targets a ladder rung must meet to count towards
// max_rate_rps: p99 limits of about ten times the fixed-rate tails, and no
// growing backlog (lateness rising by more than 5% of the probe's length).
var serveLimits = limits{singleP99Ms: 40, batchP99Ms: 80, lateSlack: 0.05}

// runPipeline is one complete run: set-up, sweeps, churn, serving. A failed
// operation or output check is counted, not fatal; an error return means
// the run could not be measured at all.
func runPipeline(o options, in inputs) (*report, error) {
	refs, err := loadReferences()
	if err != nil {
		return nil, err
	}
	rep := newReport(o.trace)
	if o.trace {
		telemetry.Enable()
	}
	sim, err := setUpSim(rep, in)
	if err != nil {
		return nil, err
	}
	// runExperiments owns the set-up sim from here and returns the last
	// pass's.
	if sim, _, err = runExperiments(context.Background(), rep, sim, in, refs); err != nil {
		return nil, err
	}

	// The sim's live heap is measured while it is alive; it is then released
	// so that its garbage collection does not delay the load generator.
	snaps, cities := len(sim.SnapshotTimes()), cityNames(sim)
	rep.spans.time("teardown", func() { rep.liveHeapBytes += liveHeap() })
	sim = nil
	runtime.GC()

	if err := runServing(o, rep, snaps, cities, in, refs); err != nil {
		return nil, err
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	rep.allocBytes += int64(m.TotalAlloc)
	rep.gcCycles += int64(m.NumGC)
	rep.gcPause = time.Duration(m.PauseTotalNs)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		rep.cpu += time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	if o.trace {
		rep.addStages(telemetry.Active().Snapshot().Stages)
	}
	return rep, nil
}

// liveHeap is the live heap after a forced collection.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// runServing starts leosim serve, waits for it to prime every snapshot with
// its oracle (set-up), fetches and checks the answer table, then runs the
// fixed-rate phase and the ladder.
func runServing(o options, rep *report, snaps int, cities []string, in inputs, refs references) error {
	t0 := time.Now()
	srv, err := startServer(o)
	if err != nil {
		return err
	}
	defer func() { rep.cpu += srv.stop() }()
	if err := srv.waitPrimed(int64(2 * snaps)); err != nil {
		return err
	}
	rep.setupServe = time.Since(t0)
	rep.spans.add("setup_serve", rep.setupServe)

	c := newClient()
	defer c.close()
	// A table that misses its pinned digest fails the run; the load still
	// runs against it so the run's timings stay comparable.
	var tab *table
	rep.spans.time("table", func() {
		if tab, err = c.fetchTable(srv.base, snaps, cities); err != nil {
			return
		}
		rep.attempted++
		if d, err := digestJSON(tab.answers); err != nil {
			rep.fail(err.Error())
		} else if err := refs.check(tableKey(snaps, len(cities)), d); err != nil {
			rep.fail(err.Error())
		}
	})
	if err != nil {
		return fmt.Errorf("answer table: %w", err)
	}

	// Warm up at the fixed rate (answers checked, latencies discarded), then
	// collect both processes' garbage: the set-up and the table leave a
	// collection due, and where it lands would decide the phase's tail.
	rep.spans.time("warmup", func() {
		samples, _, errs := c.openLoop(schedule(in.ScheduleSeed+1<<32, int(fixedRate*warmupSecs), snaps, cities, srv.base), fixedRate, tab, 0)
		rep.countLoad(samples, errs)
		if _, err = srv.liveHeap(); err == nil {
			runtime.GC()
		}
	})
	if err != nil {
		return err
	}
	before, err := srv.metrics()
	if err != nil {
		return err
	}
	rep.spans.time("fixed_rate", func() {
		n := int(fixedRate * o.seconds * fixedShare)
		samples, _, errs := c.openLoop(schedule(in.ScheduleSeed, n, snaps, cities, srv.base), fixedRate, tab, 0)
		rep.countLoad(samples, errs)
		rep.fixed = samples
	})
	after, err := srv.metrics()
	if err != nil {
		return err
	}
	rep.serverPhase(before, after)

	rep.spans.time("ladder", func() {
		stepSecs := o.seconds * stepShare
		rep.steps = climb(ladderTop, func(rung int) step {
			rate := ladderRate(rung)
			seed := in.ScheduleSeed*1000003 + int64(rung)
			samples, unsent, errs := c.openLoop(schedule(seed, int(rate*stepSecs), snaps, cities, srv.base), rate, tab, abortLate)
			rep.countLoad(samples, errs)
			return summarizeStep(rung, rate, samples, len(errs)+unsent)
		})
		rep.maxRate = maxRate(rep.steps, serveLimits)
	})

	var final *serverMetrics
	rep.spans.time("teardown", func() {
		var heap int64
		if heap, err = srv.liveHeap(); err != nil {
			return
		}
		rep.liveHeapBytes += heap
		final, err = srv.metrics()
	})
	if err != nil {
		return err
	}
	rep.serverTotals(final)
	rep.attempted++
	if err := servedFromPrimed(final, 2*snaps); err != nil {
		rep.fail(err.Error())
	}
	return nil
}

// servedFromPrimed checks that after set-up every query was a snapshot
// cache hit answered by one of the primed oracles; otherwise the load
// measured graph or oracle builds, not reads.
func servedFromPrimed(m *serverMetrics, primed int) error {
	if builds := m.Server.Counters["oracleBuilds"]; m.Cache.Misses > 0 || builds > int64(primed) {
		return fmt.Errorf("serving left the primed set: %d snapshot cache misses, %d oracle builds for %d primed snapshots",
			m.Cache.Misses, builds, primed)
	}
	return nil
}

// summarizeStep reduces one ladder probe to its tails and lateness trend.
// A probe with errors or unsent requests fails.
func summarizeStep(rung int, rate float64, samples []sample, failed int) step {
	single, batch := latencies(samples)
	return step{
		rung:   rung,
		rate:   rate,
		single: tailOf(single, 0.99),
		batch:  tailOf(batch, 0.99),
		grows:  lateGrows(samples, serveLimits.lateSlack),
		failed: failed,
	}
}
