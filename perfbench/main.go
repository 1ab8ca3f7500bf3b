// Command perfbench is leosim's end-to-end benchmark. One run sets up a
// reduced-scale Starlink simulation, times the paper sweeps (fig2a, fig4,
// fig6) and the seconds-scale churn experiment in process through the
// public leosim facade, then starts `leosim serve -prime -oracle` as its own
// process and drives it with an open-loop Zipf load: a fixed offered rate,
// then a ladder of rising rates. Every output is checked: each Run* result
// against pinned digests, each served answer against a digest-pinned
// answer table.
//
// The last line of stdout is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// benchmark first runs itself untraced in a child process, then repeats the
// run with in-process telemetry on and reports the per-layer metrics plus
// the tracing overhead of every end-to-end metric. Build and run it through
// run.sh from the root of a leosim checkout; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	leosim   string
	workdir  string
	update   bool
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), "|"))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: draws the generated inputs")
	fs.Float64Var(&o.seconds, "seconds", 15, "open-loop load time in seconds (fixed rate plus ladder)")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.leosim, "leosim", "", "path to the leosim binary to serve with")
	fs.StringVar(&o.workdir, "workdir", "", "directory for server logs")
	fs.BoolVar(&o.update, "update-references", false, "recompute the pinned output digests and rewrite reference.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o.trace = trace == 1
	if o.leosim == "" {
		return fmt.Errorf("-leosim is required")
	}
	if o.workdir == "" {
		o.workdir = filepath.Dir(o.leosim)
	}
	if o.update {
		return updateReferences(o)
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	if o.seconds < 2 {
		return fmt.Errorf("-seconds must be at least 2, got %v", o.seconds)
	}
	in := w.inputs(o.seed)

	var untraced map[string]metric
	if o.trace {
		untraced, err = runUntracedChild(o)
		if err != nil {
			return err
		}
	}
	rep, err := runPipeline(o, in)
	if err != nil {
		return err
	}
	rep.printSummary(os.Stderr, o, in)
	out := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed}
	if o.trace {
		out.Metrics = rep.layerMetrics(untraced)
	} else {
		out.Metrics = rep.endToEnd()
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return fmt.Errorf("%d of %d operations failed or gave wrong answers", rep.failed, rep.attempted)
	}
	return nil
}

// result is the benchmark's contract line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runUntracedChild reruns this binary with -trace 0 and the same inputs in
// a fresh process, so the untraced reference pays its own cold set-up (the
// land mask is built once per process), and returns its metrics.
func runUntracedChild(o options) (map[string]metric, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self,
		"-workload", o.workload,
		"-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds),
		"-trace", "0",
		"-leosim", o.leosim,
		"-workdir", o.workdir)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("untraced reference run: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("untraced reference run: %w", err)
	}
	if !r.Correct {
		return nil, fmt.Errorf("untraced reference run failed its output checks")
	}
	return r.Metrics, nil
}

// machine describes where a run happened; every summary carries it.
func machine() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s cpu=%q commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), commit())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit identifies the sources the benchmark was built from; run.sh sets
// it to a digest of the checkout's Go files.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}
