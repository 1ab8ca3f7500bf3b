package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"leosim/internal/telemetry"
)

// report accumulates one run's measurements.
type report struct {
	traced    bool
	start     time.Time
	attempted int
	failed    int

	setupSim, setupServe       time.Duration
	fig2a, fig4, fig6, churn   float64  // median seconds over the sweep passes
	fixed                      []sample // fixed-rate phase
	steps                      []step   // probed ladder rungs
	maxRate                    float64
	requests                   int
	liveHeapBytes, allocBytes  int64
	gcCycles                   int64
	gcPause, cpu               time.Duration
	serverGCPauseMaxMs         float64
	fixedServerGCs             int64     // server GC cycles during the fixed phase
	path, paths, oracleQueries histogram // server views over the fixed phase

	// stages sums the program's per-stage histograms across the benchmark
	// process (traced runs only) and the server (always on).
	stages map[string]histogram
	// layer holds per-layer values measured directly (set-up components,
	// server counters).
	layer map[string]float64
	spans spans
}

func newReport(traced bool) *report {
	return &report{traced: traced, start: time.Now(), stages: map[string]histogram{}, layer: map[string]float64{}, spans: spans{}}
}

func (r *report) fail(msg string) {
	r.failed++
	fmt.Fprintln(os.Stderr, "perfbench: FAIL:", msg)
}

func (r *report) countLoad(samples []sample, errs []error) {
	r.attempted += len(samples)
	r.requests += len(samples)
	for i, err := range errs {
		if i < 5 {
			r.fail(err.Error())
		} else {
			r.failed++
		}
	}
}

// fixedTails summarises the fixed-rate phase: the median and the tail of
// the pooled single and batch latencies.
func (r *report) fixedTails() (singleP50 float64, single tail, batchP50 float64, batch tail) {
	s, b := latencies(r.fixed)
	single, batch = tailOf(s, 0.99), tailOf(b, 0.99)
	return median(s), single, median(b), batch
}

// latencies splits samples into single and batch latencies in ms.
func latencies(samples []sample) (single, batch []float64) {
	for _, s := range samples {
		if s.batch {
			batch = append(batch, ms(s.latency))
		} else {
			single = append(single, ms(s.latency))
		}
	}
	return single, batch
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// endToEndMetrics lists the end-to-end metrics in report order.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"}, {"fig2a_s", "s"}, {"fig4_s", "s"}, {"fig6_s", "s"}, {"churn_s", "s"},
	{"live_heap_mb", "MB"},
}

func (r *report) endToEnd() map[string]metric {
	v := map[string]float64{
		"setup_s":      (r.setupSim + r.setupServe).Seconds(),
		"fig2a_s":      r.fig2a,
		"fig4_s":       r.fig4,
		"fig6_s":       r.fig6,
		"churn_s":      r.churn,
		"live_heap_mb": float64(r.liveHeapBytes) / (1 << 20),
	}
	out := map[string]metric{}
	for _, m := range endToEndMetrics {
		out[m.name] = metric{Value: v[m.name], Unit: m.unit}
	}
	return out
}

// stageLayers maps the program's stage histograms onto layer metrics:
// busy time summed across workers, and the span count. They nest —
// kdisjoint contains search — so they are not a split of the wall clock.
var stageLayers = []struct{ stage, msName, countName string }{
	{"graph_build", "graph.build_ms", "graph.builds"},
	{"advance", "graph.advance_ms", "graph.advances"},
	{"csr_freeze", "graph.csr_freeze_ms", "graph.csr_freezes"},
	{"search", "graph.search_ms", "graph.searches"},
	{"kdisjoint", "graph.kdisjoint_ms", "graph.kdisjoint_calls"},
	{"maxmin_alloc", "flow.maxmin_ms", "flow.allocations"},
	{"weather", "itur.weather_ms", "itur.curves"},
	{"oracle_build", "oracle.build_ms", "oracle.builds"},
	{"oracle_query", "oracle.query_ms", "oracle.queries"},
}

// benchSpans are the spans the benchmark itself times; their self times
// plus bench.unattributed_ms add up to the run's wall clock.
var benchSpans = []string{"setup_landmask", "setup_sim", "setup_components", "fig2a", "fig4", "fig6",
	"churn", "sweep_prep", "setup_serve", "table", "warmup", "fixed_rate", "ladder", "teardown"}

// layerMetricNames lists every per-layer metric a traced run reports, with
// its unit.
func layerMetricNames() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(name, unit string) { out = append(out, struct{ name, unit string }{name, unit}) }
	for _, n := range []string{"ground.landmask_ms", "ground.segment_ms", "ground.cities_ms",
		"aircraft.fleet_ms", "constellation.new_ms", "core.sample_pairs_ms"} {
		add(n, "ms")
	}
	for _, s := range stageLayers {
		add(s.msName, "ms")
		add(s.countName, "count")
	}
	add("snapcache.hits", "count")
	add("snapcache.misses", "count")
	add("snapcache.waits", "count")
	add("snapcache.hit_ratio", "ratio")
	add("server.path_ms", "ms")
	add("server.paths_ms", "ms")
	add("server.paths_other_ms", "ms")
	add("server.shed", "count")
	add("single_p50_ms", "ms")
	add("batch_p50_ms", "ms")
	add("single_p99_ms", "ms")
	add("batch_p99_ms", "ms")
	add("max_rate_rps", "1/s")
	add("loadgen.rtt_minus_server_ms", "ms")
	add("loadgen.late_p99_ms", "ms")
	add("loadgen.requests", "count")
	add("loadgen.single_samples", "count")
	add("loadgen.single_tail_quantile", "ratio")
	add("loadgen.batch_samples", "count")
	add("loadgen.batch_tail_quantile", "ratio")
	add("loadgen.ladder_probes", "count")
	add("process.cpu_s", "s")
	add("process.alloc_mb", "MB")
	add("process.gc_cycles", "count")
	add("process.gc_pause_ms", "ms")
	add("process.server_gc_pause_max_ms", "ms")
	add("error_rate", "ratio")
	for _, s := range benchSpans {
		add("bench."+s+"_ms", "ms")
	}
	add("bench.unattributed_ms", "ms")
	for _, m := range endToEndMetrics {
		add("trace_overhead."+m.name, m.unit)
	}
	return out
}

func (r *report) addStages(snap map[string]telemetry.HistogramSnapshot) {
	for name, h := range snap {
		r.addStage(name, histogram{Count: h.Count, MeanMs: h.MeanMs})
	}
}

func (r *report) addStage(name string, h histogram) {
	prev := r.stages[name]
	sum := histogram{Count: prev.Count + h.Count}
	if sum.Count > 0 {
		sum.MeanMs = (prev.totalMs() + h.totalMs()) / float64(sum.Count)
	}
	r.stages[name] = sum
}

// serverPhase keeps the server's view of the fixed-rate phase.
func (r *report) serverPhase(before, after *serverMetrics) {
	h := func(m map[string]histogram, name string) histogram { return m[name] }
	r.path = h(after.Server.Histograms, "http_path_ms").minus(h(before.Server.Histograms, "http_path_ms"))
	r.paths = h(after.Server.Histograms, "http_paths_ms").minus(h(before.Server.Histograms, "http_paths_ms"))
	r.oracleQueries = h(after.Stages, "oracle_query").minus(h(before.Stages, "oracle_query"))
	r.fixedServerGCs = after.Runtime.GCCycles - before.Runtime.GCCycles
}

// serverTotals folds in the server's whole-life counters at the end of the
// run.
func (r *report) serverTotals(m *serverMetrics) {
	for name, h := range m.Stages {
		r.addStage(name, h)
	}
	r.layer["snapcache.hits"] = float64(m.Cache.Hits)
	r.layer["snapcache.misses"] = float64(m.Cache.Misses)
	r.layer["snapcache.waits"] = float64(m.Stages["cache_wait"].Count)
	if n := m.Cache.Hits + m.Cache.Misses; n > 0 {
		r.layer["snapcache.hit_ratio"] = float64(m.Cache.Hits) / float64(n)
	}
	r.layer["server.shed"] = float64(m.Server.Counters["shed429"])
	r.allocBytes += m.Runtime.TotalAllocBytes
	r.gcCycles += m.Runtime.GCCycles
	r.serverGCPauseMaxMs = m.Runtime.GCPauseMaxMs
}

func (r *report) layerMetrics(untraced map[string]metric) map[string]metric {
	v := map[string]float64{}
	for k, x := range r.layer {
		v[k] = x
	}
	for _, s := range stageLayers {
		h := r.stages[s.stage]
		v[s.msName] = h.totalMs()
		v[s.countName] = float64(h.Count)
	}
	v["server.path_ms"] = r.path.MeanMs
	v["server.paths_ms"] = r.paths.MeanMs
	if r.paths.Count > 0 && r.oracleQueries.Count > 0 {
		// Oracle reads are spread over singles and batch pairs alike;
		// charge each batch its 128 pairs' share of the phase's oracle time.
		batchReads := float64(r.paths.Count * batchPairs)
		perBatch := r.oracleQueries.totalMs() * batchReads / float64(r.oracleQueries.Count) / float64(r.paths.Count)
		v["server.paths_other_ms"] = r.paths.MeanMs - perBatch
	}
	var rtt, late []float64
	for _, s := range r.fixed {
		if !s.batch {
			rtt = append(rtt, ms(s.rtt))
		}
		late = append(late, ms(s.late))
	}
	v["loadgen.rtt_minus_server_ms"] = mean(rtt) - r.path.MeanMs
	v["loadgen.late_p99_ms"] = tailOf(late, 0.99).value
	v["loadgen.requests"] = float64(r.requests)
	singleP50, st, batchP50, bt := r.fixedTails()
	v["single_p50_ms"], v["batch_p50_ms"] = singleP50, batchP50
	v["single_p99_ms"], v["batch_p99_ms"], v["max_rate_rps"] = st.value, bt.value, r.maxRate
	v["loadgen.single_samples"], v["loadgen.single_tail_quantile"] = float64(st.n), st.q
	v["loadgen.batch_samples"], v["loadgen.batch_tail_quantile"] = float64(bt.n), bt.q
	v["loadgen.ladder_probes"] = float64(len(r.steps))
	v["process.cpu_s"] = r.cpu.Seconds()
	v["process.alloc_mb"] = float64(r.allocBytes) / (1 << 20)
	v["process.gc_cycles"] = float64(r.gcCycles)
	v["process.gc_pause_ms"] = ms(r.gcPause)
	v["process.server_gc_pause_max_ms"] = r.serverGCPauseMaxMs
	v["error_rate"] = float64(r.failed) / float64(max(r.attempted, 1))
	var attributed time.Duration
	for _, s := range benchSpans {
		d := r.spans[s]
		v["bench."+s+"_ms"] = ms(d)
		attributed += d
	}
	v["bench.unattributed_ms"] = ms(time.Since(r.start) - attributed)
	traced := r.endToEnd()
	for _, m := range endToEndMetrics {
		v["trace_overhead."+m.name] = traced[m.name].Value - untraced[m.name].Value
	}
	out := map[string]metric{}
	for _, m := range layerMetricNames() {
		out[m.name] = metric{Value: v[m.name], Unit: m.unit}
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// spans records the benchmark's own timed sections by name.
type spans map[string]time.Duration

func (s spans) add(name string, d time.Duration) { s[name] += d }

func (s spans) time(name string, f func()) {
	t0 := time.Now()
	f()
	s.add(name, time.Since(t0))
}

// printSummary writes the human-readable run report: the machine, the
// generated inputs, every metric by name and unit, the sample counts behind
// each tail, and the ladder probes.
func (r *report) printSummary(w io.Writer, o options, in inputs) {
	fmt.Fprintf(w, "perfbench: workload=%s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Fprintf(w, "perfbench: machine: %s\n", machine())
	fmt.Fprintf(w, "perfbench: inputs: sim seed=%d pairs=%d churn start=+%s window=%s step=1s schedule seed=%d\n",
		in.SimSeed, in.Pairs, in.ChurnStart, in.ChurnWindow, in.ScheduleSeed)
	e2e := r.endToEnd()
	for _, m := range endToEndMetrics {
		fmt.Fprintf(w, "  %-16s %12.4f %s\n", m.name, e2e[m.name].Value, m.unit)
	}
	singleP50, st, batchP50, bt := r.fixedTails()
	for _, m := range []struct {
		name string
		v    float64
		unit string
	}{{"single_p50_ms", singleP50, "ms"}, {"single_p99_ms", st.value, "ms"},
		{"batch_p50_ms", batchP50, "ms"}, {"batch_p99_ms", bt.value, "ms"}, {"max_rate_rps", r.maxRate, "1/s"}} {
		fmt.Fprintf(w, "  %-16s %12.4f %s\n", m.name, m.v, m.unit)
	}
	fmt.Fprintf(w, "  fixed rate %.0f/s: single tail = p%.2f of %d samples, batch tail = p%.2f of %d; server GCs %d\n",
		fixedRate, 100*st.q, st.n, 100*bt.q, bt.n, r.fixedServerGCs)
	steps := append([]step(nil), r.steps...)
	sort.Slice(steps, func(i, j int) bool { return steps[i].rung < steps[j].rung })
	var probes []string
	for _, s := range steps {
		verdict := "pass"
		if !serveLimits.pass(s) {
			verdict = "fail"
		}
		probes = append(probes, fmt.Sprintf("%.0f/s:%s(p%.1f single %.2fms, batch %.2fms, grows=%v)",
			s.rate, verdict, 100*s.single.q, s.single.value, s.batch.value, s.grows))
	}
	fmt.Fprintf(w, "  ladder: %s\n", strings.Join(probes, " "))
	fmt.Fprintf(w, "  error_rate %d/%d\n", r.failed, r.attempted)
}
