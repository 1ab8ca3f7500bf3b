package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailRank is the 1-based nearest rank of the highest quantile, capped at
// want, that keeps at least minBeyond of n samples beyond it: p99 needs
// n ≥ 1000; with 200 samples the tail reported is p95. With n ≤ minBeyond
// no tail exists and the rank is the median's.
func tailRank(want float64, n int) int {
	if n <= minBeyond {
		return (n + 1) / 2
	}
	k := int(math.Ceil(want*float64(n) - 1e-9))
	if k > n-minBeyond {
		k = n - minBeyond
	}
	return max(k, 1)
}

// quantile is the nearest-rank q-quantile of samples (sorted in place).
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sort.Float64s(samples)
	k := int(math.Ceil(q*float64(len(samples)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(samples) {
		k = len(samples) - 1
	}
	return samples[k]
}

// tail summarises one latency population at its highest defensible
// percentile: the value, the quantile used and the sample count.
type tail struct {
	value float64
	q     float64
	n     int
}

func tailOf(samples []float64, want float64) tail {
	n := len(samples)
	if n == 0 {
		return tail{value: math.NaN()}
	}
	sort.Float64s(samples)
	k := tailRank(want, n)
	return tail{value: samples[k-1], q: float64(k) / float64(n), n: n}
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

// sample is one open-loop request as the client saw it.
type sample struct {
	due     time.Duration // scheduled send time, from phase start
	late    time.Duration // actual send − due
	latency time.Duration // completion − due: queueing behind busy connections counts
	rtt     time.Duration // completion − actual send
	batch   bool
	sent    bool
}

// lateGrows reports whether generator lateness rose across a phase: the
// median lateness of its last third exceeds that of its first third by more
// than slack, a share of the phase's length (with a 1 ms floor). A client
// that keeps up shows flat lateness however high the rate; a saturated one
// falls further behind with every request.
func lateGrows(samples []sample, slack float64) bool {
	n := len(samples)
	if n < 3 {
		return false
	}
	byDue := append([]sample(nil), samples...)
	sort.Slice(byDue, func(i, j int) bool { return byDue[i].due < byDue[j].due })
	third := n / 3
	first := make([]float64, 0, third)
	last := make([]float64, 0, third)
	for _, s := range byDue[:third] {
		first = append(first, float64(s.late))
	}
	for _, s := range byDue[n-third:] {
		last = append(last, float64(s.late))
	}
	allowed := math.Max(slack*float64(byDue[n-1].due-byDue[0].due), float64(time.Millisecond))
	return median(last) > median(first)+allowed
}

// step is one probed rung of the offered-rate ladder.
type step struct {
	rung   int
	rate   float64
	single tail
	batch  tail
	grows  bool
	failed int
}

// limits are the serving targets a ladder rung must meet.
type limits struct {
	singleP99Ms float64
	batchP99Ms  float64
	lateSlack   float64 // allowed lateness growth, as a share of the probe's length
}

func (l limits) pass(s step) bool {
	return s.failed == 0 && !s.grows &&
		s.single.value <= l.singleP99Ms && s.batch.value <= l.batchP99Ms
}

// maxRate is the highest probed rate whose rung passes with every lower
// probed rung passing too: the first failure ends the ladder, even when a
// noisy higher rung happened to pass. Zero when the lowest rung fails.
func maxRate(steps []step, l limits) float64 {
	sorted := append([]step(nil), steps...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].rung < sorted[j].rung })
	best := 0.0
	for _, s := range sorted {
		if !l.pass(s) {
			break
		}
		best = s.rate
	}
	return best
}

// ladderRate is the offered rate of ladder rung i.
func ladderRate(i int) float64 { return ladderBase * math.Pow(ladderRatio, float64(i)) }

// climb probes rungs 0, 1, … top once each, from the bottom up, and stops
// after the first rung that fails. It returns every probed step.
func climb(top int, probe func(rung int) step) []step {
	var steps []step
	for i := 0; i <= top; i++ {
		s := probe(i)
		steps = append(steps, s)
		if !serveLimits.pass(s) {
			break
		}
	}
	return steps
}
