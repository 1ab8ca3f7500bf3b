package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"leosim/internal/geo"
	"leosim/internal/graph"
	"leosim/internal/safe"
	"leosim/internal/telemetry"
)

// ChurnOptions configures the seconds-scale churn experiment. The zero value
// means 1-second steps over a 60-second window starting at the simulation
// epoch — resolution the 15-minute snapshot grid cannot see, and exactly the
// regime the incremental advancer makes affordable.
type ChurnOptions struct {
	// Start is the first instant (zero = geo.Epoch).
	Start time.Time
	// Step is the time between consecutive instants (zero = 1s).
	Step time.Duration
	// Window is the total simulated span (zero = 60s); the experiment
	// evaluates Window/Step transitions.
	Window time.Duration
}

// ChurnModeStats is one mode's route-stability picture over the window.
// Rates are per pair per minute of simulated time, averaged over the pairs
// reachable at every evaluated instant.
type ChurnModeStats struct {
	// PairsUsed counts pairs reachable at every instant in this mode.
	PairsUsed int `json:"pairsUsed"`
	// RouteChangesPerMin is how often a pair's shortest path changes at all
	// (any node differs — satellite handovers included, unlike pathchurn's
	// ground-sequence view).
	RouteChangesPerMin float64 `json:"routeChangesPerMin"`
	// UplinkHandoversPerMin / DownlinkHandoversPerMin count changes of the
	// first satellite after the source and the last before the destination.
	UplinkHandoversPerMin   float64 `json:"uplinkHandoversPerMin"`
	DownlinkHandoversPerMin float64 `json:"downlinkHandoversPerMin"`
}

// ChurnResult is the seconds-scale link- and route-dynamics report: GSL edge
// turnover straight from the advancer's delta log, and per-mode route-change
// and handover rates.
type ChurnResult struct {
	Start  time.Time     `json:"start"`
	Step   time.Duration `json:"step"`
	Window time.Duration `json:"window"`
	// Steps is the number of evaluated transitions.
	Steps int `json:"steps"`
	// GSLAppearPerStep / GSLVanishPerStep are constellation-wide GSL edge
	// births/deaths per step, from the BP walker's delta log (GSL edges are
	// identical across modes; ISLs never churn under +Grid).
	GSLAppearPerStep float64 `json:"gslAppearPerStep"`
	GSLVanishPerStep float64 `json:"gslVanishPerStep"`
	// FullRebuilds counts steps where a walker fell back to a full rebuild
	// (no delta recorded for those steps).
	FullRebuilds int                     `json:"fullRebuilds"`
	Modes        map[Mode]ChurnModeStats `json:"modes"`
}

// RunChurn measures link and route churn at seconds-scale resolution under
// both connectivity modes. It walks the time axis with the incremental
// advancer — the experiment the snapshot-grid rebuild cost used to rule out:
// Window/Step+1 instants per mode, each a per-step delta rather than a full
// build. Deterministic: the same sim and options always produce the same
// result.
func RunChurn(ctx context.Context, s *Sim, opt ChurnOptions) (res *ChurnResult, err error) {
	defer safe.RecoverTo(&err)
	if opt.Start.IsZero() {
		opt.Start = geo.Epoch
	}
	if opt.Step <= 0 {
		opt.Step = time.Second
	}
	if opt.Window <= 0 {
		opt.Window = time.Minute
	}
	steps := int(opt.Window / opt.Step)
	if steps < 1 {
		return nil, fmt.Errorf("core: churn window %v shorter than step %v", opt.Window, opt.Step)
	}
	res = &ChurnResult{
		Start: opt.Start, Step: opt.Step, Window: opt.Window,
		Steps: steps, Modes: map[Mode]ChurnModeStats{},
	}
	perMin := float64(time.Minute) / float64(opt.Step)

	prog := telemetry.NewProgress(Progress, "churn", 2*(steps+1))
	defer prog.Finish()
	for _, mode := range []Mode{BP, Hybrid} {
		var appeared, vanished int
		c, err := walkChurn(ctx, s.NewWalker(mode), s.Pairs, opt.Start, opt.Step, steps, func(d *graph.Delta) {
			if d != nil {
				if d.FullRebuild {
					res.FullRebuilds++
				} else if mode == BP {
					appeared += len(d.Added)
					vanished += len(d.Removed)
				}
			}
			prog.Step(1)
		})
		if err != nil {
			return nil, err
		}
		if c.used == 0 {
			return nil, fmt.Errorf("core: no pair reachable across the churn window under %s", mode)
		}
		norm := float64(c.used) * float64(steps)
		res.Modes[mode] = ChurnModeStats{
			PairsUsed:               c.used,
			RouteChangesPerMin:      float64(c.routes) / norm * perMin,
			UplinkHandoversPerMin:   float64(c.ups) / norm * perMin,
			DownlinkHandoversPerMin: float64(c.downs) / norm * perMin,
		}
		if mode == BP {
			res.GSLAppearPerStep = float64(appeared) / float64(steps)
			res.GSLVanishPerStep = float64(vanished) / float64(steps)
		}
	}
	return res, nil
}

// churnCounts is one walk's route-stability tally: the pairs routable at
// every instant, and the route, uplink and downlink changes between
// consecutive instants.
type churnCounts struct {
	used, routes, ups, downs int
}

// walkChurn steps w through steps+1 instants start, start+step, … and
// routes every pair at each, one early-stopping tree per source. A pair
// whose route is missing or shorter than three nodes (no satellite between
// its cities) is dropped for the rest of the walk; the changes it showed
// before still count, but it does not count as used. onStep sees every
// instant's delta (nil at the anchoring build) before the pairs are routed.
// Changes are tallied serially in pair order, so the counts are
// deterministic however the routing fans out.
func walkChurn(ctx context.Context, w *Walker, pairs []Pair, start time.Time, step time.Duration,
	steps int, onStep func(*graph.Delta)) (churnCounts, error) {
	var c churnCounts
	prevSig := make([]uint64, len(pairs))
	prevUp := make([]int32, len(pairs))
	prevDown := make([]int32, len(pairs))
	valid := make([]bool, len(pairs))
	for i := range valid {
		valid[i] = true
	}
	keep := func(pi int) bool { return valid[pi] }
	for si := 0; si <= steps; si++ {
		if err := ctx.Err(); err != nil {
			return c, err
		}
		n := w.At(ctx, start.Add(time.Duration(si)*step))
		onStep(w.LastDelta())
		paths, err := pairPaths(ctx, n, pairs, keep)
		if err != nil {
			return c, err
		}
		for pi, p := range paths {
			if !valid[pi] {
				continue
			}
			if len(p.Nodes) < 3 {
				valid[pi] = false
				continue
			}
			sig := pathSignature(p)
			up, down := p.Nodes[1], p.Nodes[len(p.Nodes)-2]
			if si > 0 {
				if sig != prevSig[pi] {
					c.routes++
				}
				if up != prevUp[pi] {
					c.ups++
				}
				if down != prevDown[pi] {
					c.downs++
				}
			}
			prevSig[pi], prevUp[pi], prevDown[pi] = sig, up, down
		}
	}
	for _, v := range valid {
		if v {
			c.used++
		}
	}
	return c, nil
}

// pathSignature hashes a path's full node sequence (FNV-1a). Node indices
// are stable for satellites and static terminals across advances, so equal
// signatures at adjacent instants mean the same route.
func pathSignature(p graph.Path) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range p.Nodes {
		h ^= uint64(uint32(v))
		h *= 1099511628211
	}
	return h
}

// WriteChurnReport renders the seconds-scale churn comparison.
func WriteChurnReport(w io.Writer, r *ChurnResult) {
	fmt.Fprintf(w, "churn window=%v step=%v steps=%d rebuild-fallbacks=%d\n",
		r.Window, r.Step, r.Steps, r.FullRebuilds)
	fmt.Fprintf(w, "churn GSL edges: +%.1f/-%.1f per step (constellation-wide)\n",
		r.GSLAppearPerStep, r.GSLVanishPerStep)
	for _, m := range []Mode{BP, Hybrid} {
		st := r.Modes[m]
		fmt.Fprintf(w, "churn %-6s: %.2f route changes, %.2f uplink + %.2f downlink handovers per pair-minute (pairs=%d)\n",
			m, st.RouteChangesPerMin, st.UplinkHandoversPerMin, st.DownlinkHandoversPerMin, st.PairsUsed)
	}
}
