package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// server is a `leosim serve` child process.
type server struct {
	cmd  *exec.Cmd
	base string // http://host:port
	http *http.Client
	done chan error
}

// serveArgs is the serving configuration under test.
var serveArgs = []string{"serve", "-addr", "127.0.0.1:0", "-scale", "reduced",
	"-prime", "-oracle", "-pprof", "-log-level", "warn"}

// startServer launches leosim serve and returns once it listens. Its
// stderr goes to serve.log in workdir.
func startServer(o options) (*server, error) {
	cmd := exec.Command(o.leosim, serveArgs...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logf, err := os.Create(filepath.Join(o.workdir, "serve.log"))
	if err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &server{cmd: cmd, http: &http.Client{Timeout: 30 * time.Second}, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			// "serving starlink/reduced: ... on http://127.0.0.1:PORT (built in ...)"
			if _, rest, ok := strings.Cut(line, " on http://"); ok && strings.HasPrefix(line, "serving ") {
				host, _, _ := strings.Cut(rest, " ")
				select {
				case addr <- host:
				default:
				}
			}
		}
		logf.Close()
		s.done <- cmd.Wait()
	}()
	select {
	case host := <-addr:
		s.base = "http://" + host
		return s, nil
	case err := <-s.done:
		return nil, fmt.Errorf("leosim serve exited before listening: %v (see serve.log)", err)
	case <-time.After(120 * time.Second):
		s.stop()
		return nil, fmt.Errorf("leosim serve did not listen within 120s")
	}
}

// waitPrimed polls /metrics until every snapshot of both modes is primed
// with its oracle attached.
func (s *server) waitPrimed(want int64) error {
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		m, err := s.metrics()
		if err == nil && m.Server.Gauges["cache_primed"] >= want && m.Server.Counters["oracleBuilds"] >= want {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("leosim serve did not prime %d snapshots within 120s", want)
}

// serverMetrics is the subset of GET /metrics the benchmark reads.
type serverMetrics struct {
	Server struct {
		Counters   map[string]int64     `json:"counters"`
		Gauges     map[string]int64     `json:"gauges"`
		Histograms map[string]histogram `json:"histograms"`
	} `json:"server"`
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
	Stages  map[string]histogram `json:"stages"`
	Runtime struct {
		HeapLiveBytes   int64   `json:"heapLiveBytes"`
		TotalAllocBytes int64   `json:"totalAllocBytes"`
		GCCycles        int64   `json:"gcCycles"`
		GCPauseMaxMs    float64 `json:"gcPauseMaxMs"`
	} `json:"runtime"`
}

type histogram struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"meanMs"`
}

// totalMs is the histogram's summed time (count × exact mean).
func (h histogram) totalMs() float64 { return float64(h.Count) * h.MeanMs }

// minus is the histogram of the observations made since an earlier view.
func (h histogram) minus(prev histogram) histogram {
	d := histogram{Count: h.Count - prev.Count}
	if d.Count > 0 {
		d.MeanMs = (h.totalMs() - prev.totalMs()) / float64(d.Count)
	}
	return d
}

func (s *server) metrics() (*serverMetrics, error) {
	resp, err := s.http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	var m serverMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

// liveHeap forces a GC in the server (the pprof heap handler's gc=1) and
// returns the live heap the runtime then reports.
func (s *server) liveHeap() (int64, error) {
	resp, err := s.http.Get(s.base + "/debug/pprof/heap?gc=1")
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the GC side effect matters
	resp.Body.Close()
	m, err := s.metrics()
	if err != nil {
		return 0, err
	}
	return m.Runtime.HeapLiveBytes, nil
}

// stop sends SIGTERM, waits for the graceful drain and kills the process
// if it outlives it. It returns the CPU time the server used.
func (s *server) stop() time.Duration {
	s.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone is fine
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill() //nolint:errcheck
		<-s.done
	}
	if st := s.cmd.ProcessState; st != nil {
		return st.UserTime() + st.SystemTime()
	}
	return 0
}
