package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fakeServer answers every single-path query with want after delay.
func fakeServer(t *testing.T, delay time.Duration, want answer) *httptest.Server {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		json.NewEncoder(w).Encode(map[string]answer{"path": want}) //nolint:errcheck
	}))
	t.Cleanup(srv.Close)
	return srv
}

// uniformTable answers every pair of two cities at one snapshot with a.
func uniformTable(a answer) *table {
	t := &table{cities: 2, answers: make([]answer, 2*2*2)}
	for i := range t.answers {
		t.answers[i] = a
	}
	return t
}

func singles(base string, n int) []request {
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = request{pairs: [][2]int{{0, 1}}, url: base + "/v1/path"}
	}
	return reqs
}

var fixedAnswer = answer{Reachable: true, RTTMs: 42.5, Hops: 4}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	srv := fakeServer(t, 4*time.Millisecond, fixedAnswer)
	c := newClient()
	defer c.close()
	// Offered 2000/s against at most 2 connections × 250/s: requests queue
	// behind busy connections, and that wait must show in their latency.
	samples, unsent, errs := c.openLoop(singles(srv.URL, 60), 2000, uniformTable(fixedAnswer), 0)
	if len(errs) != 0 || unsent != 0 || len(samples) != 60 {
		t.Fatalf("errs %v, unsent %d, %d samples", errs, unsent, len(samples))
	}
	for i, s := range samples {
		if want := time.Duration(i) * 500 * time.Microsecond; s.due != want {
			t.Fatalf("request %d due at %v, want %v", i, s.due, want)
		}
		if s.latency != s.late+s.rtt {
			t.Fatalf("request %d: latency %v ≠ late %v + rtt %v", i, s.latency, s.late, s.rtt)
		}
		if s.rtt < 4*time.Millisecond {
			t.Fatalf("request %d: rtt %v shorter than the server's delay", i, s.rtt)
		}
	}
	if !lateGrows(samples, 0.02) {
		t.Error("overloaded open loop: lateness not growing")
	}
	if last := samples[len(samples)-1]; last.late < 50*time.Millisecond {
		t.Errorf("last request only %v late; the backlog went unrecorded", last.late)
	}
}

func TestOpenLoopKeepsUpBelowCapacity(t *testing.T) {
	srv := fakeServer(t, 0, fixedAnswer)
	c := newClient()
	defer c.close()
	samples, _, errs := c.openLoop(singles(srv.URL, 50), 200, uniformTable(fixedAnswer), 0)
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	if lateGrows(samples, 0.02) {
		t.Error("lateness grows at 200/s against an instant server")
	}
	if d := samples[len(samples)-1].due; d != 49*5*time.Millisecond {
		t.Errorf("last due time %v, want 245ms", d)
	}
}

func TestOpenLoopAbortsWhenTooLate(t *testing.T) {
	srv := fakeServer(t, 5*time.Millisecond, fixedAnswer)
	c := newClient()
	defer c.close()
	samples, unsent, _ := c.openLoop(singles(srv.URL, 400), 5000, uniformTable(fixedAnswer), 20*time.Millisecond)
	if unsent == 0 || len(samples)+unsent != 400 {
		t.Fatalf("%d sent, %d unsent: want an early stop", len(samples), unsent)
	}
	s := summarizeStep(0, 5000, samples, unsent)
	if serveLimits.pass(s) {
		t.Error("an aborted probe passed")
	}
}

func TestOpenLoopCountsWrongAnswers(t *testing.T) {
	srv := fakeServer(t, 0, answer{Reachable: true, RTTMs: 42.500000001, Hops: 4})
	c := newClient()
	defer c.close()
	_, _, errs := c.openLoop(singles(srv.URL, 5), 500, uniformTable(fixedAnswer), 0)
	if len(errs) != 5 {
		t.Fatalf("%d errors for 5 wrong answers", len(errs))
	}
	rep := newReport(false)
	rep.countLoad(make([]sample, 5), errs)
	if rep.attempted != 5 || rep.failed != 5 {
		t.Errorf("attempted %d failed %d, want 5 and 5", rep.attempted, rep.failed)
	}
}

func TestScheduleIsSeededZipfWithDistinctBatchPairs(t *testing.T) {
	cities := make([]string, 150)
	for i := range cities {
		cities[i] = fmt.Sprintf("City %d", i)
	}
	a := schedule(5, 4000, 12, cities, "http://x")
	b := schedule(5, 4000, 12, cities, "http://x")
	batches, hot, cold := 0, 0, 0
	for i := range a {
		if a[i].url != b[i].url || string(a[i].body) != string(b[i].body) {
			t.Fatalf("request %d differs between two draws of one seed", i)
		}
		if a[i].snap < 0 || a[i].snap >= 12 || a[i].mode < 0 || a[i].mode > 1 {
			t.Fatalf("request %d: snap %d mode %d out of range", i, a[i].snap, a[i].mode)
		}
		if a[i].body != nil {
			batches++
			if len(a[i].pairs) != batchPairs {
				t.Fatalf("batch of %d pairs", len(a[i].pairs))
			}
			seen := map[[2]int]bool{}
			for _, p := range a[i].pairs {
				if seen[p] || p[0] == p[1] {
					t.Fatalf("batch %d repeats pair %v or pairs a city with itself", i, p)
				}
				seen[p] = true
			}
			continue
		}
		if !strings.Contains(a[i].url, "/v1/path?") {
			t.Fatalf("single request URL %q", a[i].url)
		}
		if p := a[i].pairs[0]; p[0] < 4 {
			hot++
		} else if p[0] >= 32 {
			cold++
		}
	}
	if share := float64(batches) / float64(len(a)); share < batchShare-0.02 || share > batchShare+0.02 {
		t.Errorf("batch share %.3f, want ≈ %v", share, batchShare)
	}
	// Zipf(1.1, 2) over 150 cities: the 4 most populous source about 33%
	// of the single queries, far more than 4/150, and the cities beyond the
	// 32 most populous still source about 28%.
	singleQueries := float64(len(a) - batches)
	if share := float64(hot) / singleQueries; share < 0.28 || share > 0.38 {
		t.Errorf("top-4 source share %.2f, want ≈ 0.33", share)
	}
	if share := float64(cold) / singleQueries; share < 0.23 || share > 0.33 {
		t.Errorf("share sourced beyond the top 32 %.2f, want ≈ 0.28", share)
	}
	if c := schedule(6, 50, 12, cities, "http://x"); c[0].url == a[0].url && c[1].url == a[1].url && c[2].url == a[2].url {
		t.Error("seeds 5 and 6 draw the same schedule")
	}
}

func TestServedFromPrimedTripsOnMissesAndBuilds(t *testing.T) {
	m := &serverMetrics{}
	m.Server.Counters = map[string]int64{"oracleBuilds": 24}
	m.Cache.Hits = 1000
	if err := servedFromPrimed(m, 24); err != nil {
		t.Errorf("all hits on 24 primed oracles: %v", err)
	}
	m.Cache.Misses = 1
	if servedFromPrimed(m, 24) == nil {
		t.Error("a snapshot cache miss passed")
	}
	m.Cache.Misses = 0
	m.Server.Counters["oracleBuilds"] = 25
	if servedFromPrimed(m, 24) == nil {
		t.Error("an oracle build beyond the primed ones passed")
	}
}
