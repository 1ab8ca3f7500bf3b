package main

import (
	"math"
	"testing"
	"time"
)

func TestTailRankKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{100000, 99000}, // capped at the requested p99
		{1000, 990},     // exactly 10 beyond p99
		{999, 989},      // p99 would leave 9 beyond: p98.999
		{200, 190},      // p95
		{20, 10},        // p50
		{11, 1},
		{10, 5}, // too few for any tail: the median
		{1, 1},
	} {
		k := tailRank(0.99, tc.n)
		if k != tc.want {
			t.Errorf("n=%d: rank %d, want %d", tc.n, k, tc.want)
		}
		if tc.n > minBeyond && tc.n-k < minBeyond {
			t.Errorf("n=%d: only %d samples beyond rank %d", tc.n, tc.n-k, k)
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i)
	}
	if got := tailOf(xs, 0.99); got.value != 190 || got.q != 0.95 || got.n != 200 {
		t.Errorf("tailOf(1..200) = %+v, want 190 at p95 of 200", got)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.91, 10}, {0, 1}, {1, 10}} {
		if got := quantile(append([]float64(nil), xs...), tc.q); got != tc.want {
			t.Errorf("q=%v: got %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestLateGrows(t *testing.T) {
	mk := func(late func(i int) time.Duration) []sample {
		s := make([]sample, 300)
		for i := range s {
			s[i] = sample{due: time.Duration(i) * time.Millisecond, late: late(i)}
		}
		return s
	}
	flat := mk(func(i int) time.Duration { return time.Duration(i%7) * 100 * time.Microsecond })
	if lateGrows(flat, 0.02) {
		t.Error("flat lateness reported as growing")
	}
	rising := mk(func(i int) time.Duration { return time.Duration(i) * 50 * time.Microsecond })
	if !lateGrows(rising, 0.02) {
		t.Error("lateness rising by 50µs per request not reported as growing")
	}
	// Growth within 2% of the 300 ms phase is noise, not a backlog.
	slow := mk(func(i int) time.Duration { return time.Duration(i) * 10 * time.Microsecond })
	if lateGrows(slow, 0.02) {
		t.Error("3 ms of growth over a 300 ms phase reported as growing")
	}
	// The verdict depends on due order, not on completion order.
	reversed := append([]sample(nil), rising...)
	for i, j := 0, len(reversed)-1; i < j; i, j = i+1, j-1 {
		reversed[i], reversed[j] = reversed[j], reversed[i]
	}
	if !lateGrows(reversed, 0.02) {
		t.Error("growth missed when samples arrive out of due order")
	}
}

var testLimits = limits{singleP99Ms: 10, batchP99Ms: 50, lateSlack: 0.02}

func okStep(rung int, rate float64) step {
	return step{rung: rung, rate: rate, single: tail{value: 2}, batch: tail{value: 5}}
}

func TestMaxRateStopsAtFirstFailure(t *testing.T) {
	steps := []step{okStep(0, 100), okStep(1, 200), okStep(2, 300), okStep(3, 400)}
	if got := maxRate(steps, testLimits); got != 400 {
		t.Errorf("all pass: max rate %v, want 400", got)
	}
	for name, breakIt := range map[string]func(*step){
		"single p99 over limit": func(s *step) { s.single.value = 11 },
		"batch p99 over limit":  func(s *step) { s.batch.value = 51 },
		"lateness grows":        func(s *step) { s.grows = true },
		"failed requests":       func(s *step) { s.failed = 1 },
	} {
		st := append([]step(nil), steps...)
		breakIt(&st[2])
		if got := maxRate(st, testLimits); got != 200 {
			t.Errorf("%s at rung 2: max rate %v, want 200", name, got)
		}
	}
	// A noisy pass above the first failure does not count, whatever order
	// the rungs were probed in.
	st := []step{okStep(3, 400), okStep(0, 100), okStep(1, 200), okStep(2, 300)}
	st[2].grows = true
	if got := maxRate(st, testLimits); got != 100 {
		t.Errorf("pass above a failure: max rate %v, want 100", got)
	}
	st[1].single.value = 99
	if got := maxRate(st, testLimits); got != 0 {
		t.Errorf("lowest rung failing: max rate %v, want 0", got)
	}
}

func TestClimbStopsAfterFirstFailingRung(t *testing.T) {
	for _, capacity := range []int{-1, 0, 7, ladderTop} {
		var probed []int
		steps := climb(ladderTop, func(rung int) step {
			probed = append(probed, rung)
			s := okStep(rung, ladderRate(rung))
			if rung > capacity {
				s.grows = true
			}
			return s
		})
		wantProbes := min(capacity+2, ladderTop+1)
		if len(probed) != wantProbes || len(steps) != wantProbes {
			t.Errorf("capacity rung %d: probed %v, want rungs 0..%d", capacity, probed, wantProbes-1)
		}
		want := 0.0
		if capacity >= 0 {
			want = ladderRate(capacity)
		}
		if got := maxRate(steps, serveLimits); math.Abs(got-want) > 1e-9 {
			t.Errorf("capacity rung %d: max rate %v, want %v", capacity, got, want)
		}
	}
}
