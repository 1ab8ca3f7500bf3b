package graph_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leosim/internal/aircraft"
	"leosim/internal/constellation"
	"leosim/internal/core"
	"leosim/internal/fault"
	"leosim/internal/geo"
	"leosim/internal/graph"
	"leosim/internal/ground"
	"leosim/internal/safe"
	"leosim/internal/telemetry"
)

// treesWorld is the reduced-scale substrate the snapshot tests and
// benchmarks route over: Starlink phase 1 with ISLs, the 150 largest
// cities, 2.5° relays within 2000 km and an aircraft density of 0.5 — the
// graph the paper sweeps and the oracle search. It has the GSL-heavy
// fan-out of the real workload: ~23 k ground links against 3.2 k ISLs,
// about a dozen relaxations per settled node.
type treesWorld struct {
	c      *constellation.Constellation
	cities []ground.City
	seg    *ground.Segment
	fleet  *aircraft.Fleet
}

var (
	treesWorldOnce sync.Once
	treesWorldVal  treesWorld
	treesWorldErr  error
)

func reducedWorld(t testing.TB) treesWorld {
	t.Helper()
	treesWorldOnce.Do(func() {
		w := &treesWorldVal
		if w.c, treesWorldErr = constellation.New([]constellation.Shell{constellation.StarlinkPhase1()},
			constellation.WithISLs()); treesWorldErr != nil {
			return
		}
		if w.cities, treesWorldErr = ground.Cities(150); treesWorldErr != nil {
			return
		}
		if w.seg, treesWorldErr = ground.NewSegment(w.cities, 2.5, 2000); treesWorldErr != nil {
			return
		}
		w.fleet, treesWorldErr = aircraft.NewFleet(0.5)
	})
	if treesWorldErr != nil {
		t.Fatal(treesWorldErr)
	}
	return treesWorldVal
}

// reducedSnapshot builds the reduced-scale snapshot at epoch + 6 h,
// bent-pipe or hybrid, optionally under a realized fault plan.
func reducedSnapshot(t testing.TB, isl bool, faults *fault.Plan) *graph.Network {
	t.Helper()
	w := reducedWorld(t)
	opts := graph.DefaultOptions()
	opts.ISL = isl
	if faults != nil {
		out, err := faults.Realize(w.c, len(w.seg.Terminals))
		if err != nil {
			t.Fatal(err)
		}
		opts.Mask = out.Mask
	}
	b, err := graph.NewBuilder(w.c, w.seg, w.fleet, opts)
	if err != nil {
		t.Fatal(err)
	}
	return b.At(geo.Epoch.Add(6 * time.Hour))
}

// treeJobs gives every city a job with two spread destinations, one of
// them repeated, plus the source itself for every fifth city and the first
// isolated node, if any, as an unreachable last target (returned too, -1
// when there is none).
func treeJobs(n *graph.Network) (jobs []graph.TreeJob, isolated int32) {
	isolated = -1
	for v := int32(0); v < int32(n.N()); v++ {
		if n.Degree(v) == 0 {
			isolated = v
			break
		}
	}
	jobs = make([]graph.TreeJob, n.NumCity)
	for i := range jobs {
		src := n.CityNode(i)
		a, b := n.CityNode((i*7+3)%n.NumCity), n.CityNode((i*13+5)%n.NumCity)
		targets := []int32{a, b, a}
		if i%5 == 0 {
			targets = append(targets, src)
		}
		if isolated >= 0 {
			targets = append(targets, isolated)
		}
		jobs[i] = graph.TreeJob{Src: src, Targets: targets}
	}
	return jobs, isolated
}

// TestTreesMatchShortestPath holds every job's early-stopped tree to
// per-pair ShortestPath (and ShortestPathSatTransit under the sat-transit
// expand) on reduced-scale snapshots: both connectivity modes, healthy and
// under a sat:0.1:1 outage, with duplicate targets, src == dst and
// unreachable destinations.
func TestTreesMatchShortestPath(t *testing.T) {
	outage, err := fault.ForScenario(fault.SatOutage, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		isl    bool
		faults *fault.Plan
	}{
		{"bp", false, nil},
		{"hybrid", true, nil},
		{"bp/sat:0.1:1", false, &outage},
		{"hybrid/sat:0.1:1", true, &outage},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := reducedSnapshot(t, tc.isl, tc.faults)
			jobs, isolated := treeJobs(n)
			if tc.faults != nil && isolated < 0 {
				t.Fatal("masked snapshot has no isolated node to target")
			}
			satTransit := func(v int32) bool { return !n.IsGroundSide(v) }
			for _, expand := range []func(int32) bool{nil, satTransit} {
				got := make([][]graph.Path, len(jobs))
				reached := make([][]bool, len(jobs))
				err := n.Trees(context.Background(), jobs, expand, func(j int, st *graph.SearchState) error {
					for _, tg := range jobs[j].Targets {
						p, ok := st.Path(tg)
						got[j] = append(got[j], p)
						reached[j] = append(reached[j], ok)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for j, job := range jobs {
					for k, tg := range job.Targets {
						want, ok := n.ShortestPath(job.Src, tg)
						if expand != nil {
							want, ok = n.ShortestPathSatTransit(job.Src, tg)
						}
						if ok != reached[j][k] || !reflect.DeepEqual(want, got[j][k]) {
							t.Fatalf("sat-transit=%v %d→%d: tree path %+v (%v), per-pair %+v (%v)",
								expand != nil, job.Src, tg, got[j][k], reached[j][k], want, ok)
						}
					}
				}
			}
		})
	}
}

// A context cancelled mid-fan-out stops the remaining jobs and returns the
// context's error; a dead context runs no job at all.
func TestTreesCancellation(t *testing.T) {
	n := reducedSnapshot(t, false, nil)
	jobs, _ := treeJobs(n)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var visits atomic.Int64
	err := n.Trees(ctx, jobs, nil, func(int, *graph.SearchState) error {
		if visits.Add(1) == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if v := visits.Load(); v >= int64(len(jobs)) {
		t.Fatalf("%d of %d jobs visited after cancellation", v, len(jobs))
	}

	visits.Store(0)
	err = n.Trees(ctx, jobs, nil, func(int, *graph.SearchState) error {
		visits.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) || visits.Load() != 0 {
		t.Fatalf("dead context: err = %v after %d visits, want context.Canceled and none", err, visits.Load())
	}
}

// A panic in visit comes back as a *safe.PanicError with the panicking
// goroutine's stack, not a crashed process; a visit error stops the fan-out
// and is returned as is.
func TestTreesVisitFailure(t *testing.T) {
	n := reducedSnapshot(t, false, nil)
	jobs, _ := treeJobs(n)
	err := n.Trees(context.Background(), jobs, nil, func(j int, _ *graph.SearchState) error {
		if j == len(jobs)/2 {
			panic("visit exploded")
		}
		return nil
	})
	var pe *safe.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *safe.PanicError", err, err)
	}
	if !strings.Contains(pe.Error(), "visit exploded") || len(pe.Stack) == 0 {
		t.Fatalf("panic value or stack lost: %v", pe)
	}

	boom := errors.New("boom")
	var visits atomic.Int64
	err = n.Trees(context.Background(), jobs, nil, func(int, *graph.SearchState) error {
		visits.Add(1)
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if v := visits.Load(); v >= int64(len(jobs)) {
		t.Fatalf("%d of %d jobs visited after the first error", v, len(jobs))
	}
}

// BenchmarkSearchSnapshot measures one full shortest-path tree per
// operation on a reduced-scale snapshot, cycling the source over the city
// terminals as oracle builds and per-source sweeps do: bp is the paper's
// bent-pipe graph, hybrid adds the +Grid ISLs.
func BenchmarkSearchSnapshot(b *testing.B) {
	telemetry.Disable()
	for _, mode := range []struct {
		name string
		isl  bool
	}{{"bp", false}, {"hybrid", true}} {
		b.Run(mode.name, func(b *testing.B) {
			n := reducedSnapshot(b, mode.isl, nil)
			st := graph.AcquireSearch()
			defer st.Release()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src := n.CityNode(i % n.NumCity)
				if !n.Search(st, graph.SearchSpec{Src: src}) {
					b.Fatal("search stopped")
				}
			}
		})
	}
}

// BenchmarkTrees routes the reduced scale's 120-pair traffic matrix over
// BenchmarkSearchSnapshot's snapshot, one operation per pass over all
// pairs: grouped is one Trees fan-out with one early-stopping tree per
// distinct source, per-pair the serial one-ShortestPath-per-pair loop it
// replaced.
func BenchmarkTrees(b *testing.B) {
	telemetry.Disable()
	sc := core.ReducedScale()
	pairs, err := core.SamplePairs(reducedWorld(b).cities, sc.NumPairs, sc.MinPairKm, sc.Seed)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		isl  bool
	}{{"bp", false}, {"hybrid", true}} {
		n := reducedSnapshot(b, mode.isl, nil)
		var jobs []graph.TreeJob
		jobOf := map[int]int{}
		for _, p := range pairs {
			j, ok := jobOf[p.Src]
			if !ok {
				j = len(jobs)
				jobOf[p.Src] = j
				jobs = append(jobs, graph.TreeJob{Src: n.CityNode(p.Src)})
			}
			jobs[j].Targets = append(jobs[j].Targets, n.CityNode(p.Dst))
		}
		b.Run(mode.name+"/grouped", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				err := n.Trees(context.Background(), jobs, nil, func(j int, st *graph.SearchState) error {
					for _, tg := range jobs[j].Targets {
						if _, ok := st.Path(tg); !ok {
							return errors.New("unreachable pair")
						}
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(mode.name+"/per-pair", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, p := range pairs {
					if _, ok := n.ShortestPath(n.CityNode(p.Src), n.CityNode(p.Dst)); !ok {
						b.Fatal("unreachable pair")
					}
				}
			}
		})
	}
}
