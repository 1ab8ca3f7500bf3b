package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"leosim"
)

// Serving workload shape. Sources and destinations are each drawn
// Zipf(zipfS, zipfV) over the population ranking of every city the scale
// serves, the popularity curve examples/serve draws, so a few pairs are hot
// and most are cold. batchShare is an assumed mix, not a measured one: no
// traffic trace of leosim serve exists.
const (
	zipfS      = 1.1
	zipfV      = 2
	batchPairs = 128
	batchShare = 0.1 // share of requests that are 128-pair batches
	// tableBatch is the server's limit on pairs per POST /v1/paths.
	tableBatch = 10000
)

// answer is one (snapshot, mode, src, dst) path answer as served.
type answer struct {
	Reachable bool    `json:"reachable"`
	RTTMs     float64 `json:"rttMs"`
	Hops      int     `json:"hops"`
}

// table holds the pinned answer of every query the schedule can ask, over
// cities cities: see index.
type table struct {
	cities  int
	answers []answer
}

func (t *table) index(snap, mode, src, dst int) int {
	return ((snap*2+mode)*t.cities+src)*t.cities + dst
}

func (t *table) at(snap, mode, src, dst int) answer { return t.answers[t.index(snap, mode, src, dst)] }

var modeNames = [2]string{"bp", "hybrid"}

// cityNames names the sim's cities, most populous first (the city list
// depends only on the scale's city count, so it matches the server's).
func cityNames(sim *leosim.Sim) []string {
	names := make([]string, sim.NumCities())
	for i := range names {
		names[i] = sim.CityName(i)
	}
	return names
}

// request is one scheduled query, pre-encoded so sending costs nothing but
// the HTTP exchange.
type request struct {
	snap, mode int
	pairs      [][2]int
	url        string
	body       []byte // non-nil for a POST /v1/paths batch
}

// schedule draws n requests from seed: Zipf city pairs over every city,
// uniform snapshot and mode, batchShare of them 128-pair batches.
func schedule(seed int64, n, snaps int, cities []string, base string) []request {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, zipfS, zipfV, uint64(len(cities)-1))
	pair := func() [2]int {
		for {
			s, d := int(zipf.Uint64()), int(zipf.Uint64())
			if s != d {
				return [2]int{s, d}
			}
		}
	}
	reqs := make([]request, n)
	for i := range reqs {
		r := request{snap: rng.Intn(snaps), mode: rng.Intn(2)}
		if rng.Float64() < batchShare {
			// The server rejects a batch that repeats a pair.
			seen := map[[2]int]bool{}
			for len(r.pairs) < batchPairs {
				if p := pair(); !seen[p] {
					seen[p] = true
					r.pairs = append(r.pairs, p)
				}
			}
			r.url = base + "/v1/paths"
			r.body = batchBody(r, cities)
		} else {
			r.pairs = [][2]int{pair()}
			q := url.Values{}
			q.Set("src", cities[r.pairs[0][0]])
			q.Set("dst", cities[r.pairs[0][1]])
			q.Set("mode", modeNames[r.mode])
			q.Set("snap", fmt.Sprint(r.snap))
			r.url = base + "/v1/path?" + q.Encode()
		}
		reqs[i] = r
	}
	return reqs
}

type batchPair struct {
	Src string `json:"src"`
	Dst string `json:"dst"`
}

func batchBody(r request, cities []string) []byte {
	req := struct {
		Mode  string      `json:"mode"`
		Snap  int         `json:"snap"`
		Pairs []batchPair `json:"pairs"`
	}{Mode: modeNames[r.mode], Snap: r.snap}
	for _, p := range r.pairs {
		req.Pairs = append(req.Pairs, batchPair{cities[p[0]], cities[p[1]]})
	}
	b, _ := json.Marshal(req)
	return b
}

// client sends requests over at most nproc (capped at 2) keep-alive
// connections, one in flight per connection.
type client struct {
	conns []*http.Client
}

func newClient() *client {
	n := runtime.NumCPU()
	if n > 2 {
		n = 2
	}
	c := &client{}
	for i := 0; i < n; i++ {
		c.conns = append(c.conns, &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return c
}

func (c *client) close() {
	for _, h := range c.conns {
		h.CloseIdleConnections()
	}
}

// do sends one request and returns the answers it carried.
func (c *client) do(h *http.Client, r request) ([]answer, error) {
	var resp *http.Response
	var err error
	if r.body != nil {
		resp, err = h.Post(r.url, "application/json", bytes.NewReader(r.body))
	} else {
		resp, err = h.Get(r.url)
	}
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(b))
	}
	if r.body != nil {
		var out struct {
			Results []answer `json:"results"`
		}
		if err := json.Unmarshal(b, &out); err != nil {
			return nil, err
		}
		return out.Results, nil
	}
	var out struct {
		Path answer `json:"path"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, err
	}
	return []answer{out.Path}, nil
}

// check compares served answers with the pinned table; a missing, extra
// or different answer is a wrong answer.
func (t *table) check(r request, got []answer) error {
	if len(got) != len(r.pairs) {
		return fmt.Errorf("%d answers for %d pairs", len(got), len(r.pairs))
	}
	for i, p := range r.pairs {
		if want := t.at(r.snap, r.mode, p[0], p[1]); got[i] != want {
			return fmt.Errorf("snap %d %s pair %v: got %+v, want %+v", r.snap, modeNames[r.mode], p, got[i], want)
		}
	}
	return nil
}

// openLoop sends reqs at a constant offered rate. Request i is due at
// i/rate after the phase starts whether or not earlier requests have
// completed; a request that finds every connection busy waits, and that
// wait counts in its latency, which runs from the due time. With abortAfter
// > 0 the phase stops sending once a request goes out that late. It returns
// the samples of the requests sent and how many were never sent.
func (c *client) openLoop(reqs []request, rate float64, t *table, abortAfter time.Duration) (samples []sample, unsent int, errs []error) {
	all := make([]sample, len(reqs))
	var mu sync.Mutex
	var next atomic.Int64
	var abort atomic.Bool
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for _, h := range c.conns {
		wg.Add(1)
		go func(h *http.Client) {
			defer wg.Done()
			for !abort.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := time.Duration(i) * interval
				if wait := time.Until(start.Add(due)); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				if abortAfter > 0 && sent-due > abortAfter {
					abort.Store(true)
				}
				got, err := c.do(h, reqs[i])
				done := time.Since(start)
				if err == nil {
					err = t.check(reqs[i], got)
				}
				all[i] = sample{due: due, late: sent - due, latency: done - due,
					rtt: done - sent, batch: reqs[i].body != nil, sent: true}
				if err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}(h)
	}
	wg.Wait()
	for _, s := range all {
		if s.sent {
			samples = append(samples, s)
		}
	}
	return samples, len(reqs) - len(samples), errs
}

// fetchTable asks the server for every ordered city pair at every snapshot
// and mode, in batches of at most tableBatch pairs of one (snapshot, mode).
func (c *client) fetchTable(base string, snaps int, cities []string) (*table, error) {
	n := len(cities)
	t := &table{cities: n, answers: make([]answer, snaps*2*n*n)}
	var pairs [][2]int
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				pairs = append(pairs, [2]int{s, d})
			}
		}
	}
	for snap := 0; snap < snaps; snap++ {
		for mode := 0; mode < 2; mode++ {
			for lo := 0; lo < len(pairs); lo += tableBatch {
				r := request{snap: snap, mode: mode, url: base + "/v1/paths", pairs: pairs[lo:min(lo+tableBatch, len(pairs))]}
				r.body = batchBody(r, cities)
				got, err := c.do(c.conns[0], r)
				if err != nil {
					return nil, err
				}
				if len(got) != len(r.pairs) {
					return nil, fmt.Errorf("answer table: %d answers for %d pairs", len(got), len(r.pairs))
				}
				for i, p := range r.pairs {
					t.answers[t.index(snap, mode, p[0], p[1])] = got[i]
				}
			}
		}
	}
	return t, nil
}

func tableKey(snaps, cities int) string {
	return fmt.Sprintf("serve-table/scale=reduced/cities=%d/snaps=%d", cities, snaps)
}
