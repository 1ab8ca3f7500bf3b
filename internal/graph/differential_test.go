package graph

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"leosim/internal/geo"
)

// This file checks the allocation-free kernel against a deliberately naive
// reference Dijkstra (linear scan, no heap, no stamping, map-based bans) on
// randomized graphs. Link weights are quantized to small integers so
// equal-distance ties are common: the comparison is exact — distances,
// predecessor links, and extracted paths must be bit-identical, which pins
// down the kernel's (dist, node) tie-break as well as its correctness.

// noTarget makes naiveDijkstra settle every reachable node.
const noTarget int32 = -1

// naiveDijkstra mirrors the kernel's semantics with O(n²) linear scans:
// settle the unsettled reached node with minimal (dist, node); a settled
// non-source node forwards only if it is not banned and expand allows it;
// relaxation walks the link list in index order and accepts strict
// improvements only.
func naiveDijkstra(n *Network, src, target int32, bannedLinks, bannedNodes map[int32]bool,
	expand func(int32) bool, cost func(int32) float64) (dist []float64, prev []int32) {
	nn := n.N()
	dist = make([]float64, nn)
	prev = make([]int32, nn)
	settled := make([]bool, nn)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	for {
		v := int32(-1)
		for u := int32(0); u < int32(nn); u++ {
			if settled[u] || math.IsInf(dist[u], 1) {
				continue
			}
			if v < 0 || dist[u] < dist[v] {
				v = u
			}
		}
		if v < 0 {
			break
		}
		settled[v] = true
		if v == target {
			break
		}
		if v != src {
			if bannedNodes[v] {
				continue
			}
			if expand != nil && !expand(v) {
				continue
			}
		}
		for li := range n.Links {
			l := n.Links[li]
			var to int32
			switch v {
			case l.A:
				to = l.B
			case l.B:
				to = l.A
			default:
				continue
			}
			if bannedLinks[int32(li)] {
				continue
			}
			w := l.OneWayMs
			if cost != nil {
				w = cost(int32(li))
				if math.IsInf(w, 1) {
					continue
				}
			}
			if nd := dist[v] + w; nd < dist[to] {
				dist[to] = nd
				prev[to] = int32(li)
			}
		}
	}
	return dist, prev
}

// randomNet builds a connected random graph with quantized weights (1–4 ms in
// 0.5 ms steps) so shortest paths tie constantly. Roughly a third of the
// nodes are ground-side, exercising transit restrictions.
func randomNet(r *rand.Rand, nodes, extraLinks int) *Network {
	n := &Network{}
	for i := 0; i < nodes; i++ {
		kind := NodeSatellite
		if r.Intn(3) == 0 {
			kind = NodeCity
		}
		n.AddNode(kind, geo.Vec3{}, "")
	}
	addW := func(a, b int32, w float64) {
		n.Links = append(n.Links, Link{A: a, B: b, Kind: LinkGSL, CapGbps: 1 + r.Float64()*4, OneWayMs: w})
		n.csrValid.Store(false)
	}
	weight := func() float64 { return 1 + 0.5*float64(r.Intn(7)) }
	// A random spanning tree keeps the graph connected …
	for v := int32(1); v < int32(nodes); v++ {
		addW(v, int32(r.Intn(int(v))), weight())
	}
	// … plus extra random links (parallel links allowed — the kernel must
	// handle them, they arise from multi-beam GSLs).
	for i := 0; i < extraLinks; i++ {
		a, b := int32(r.Intn(nodes)), int32(r.Intn(nodes))
		if a == b {
			continue
		}
		addW(a, b, weight())
	}
	return n
}

// searchTree runs one full kernel search from src with the given links
// banned and transit restricted by expand, and reads the tree back.
func searchTree(n *Network, src int32, banned map[int32]bool, expand func(int32) bool) (dist []float64, prev []int32) {
	st := AcquireSearch()
	defer st.Release()
	for li, b := range banned {
		if b {
			st.BanLink(li)
		}
	}
	n.Search(st, SearchSpec{Src: src, Expand: expand})
	return readTree(st, n)
}

// readTree copies st's last search into fresh per-node slices.
func readTree(st *SearchState, n *Network) (dist []float64, prev []int32) {
	dist = make([]float64, n.N())
	prev = make([]int32, n.N())
	st.ReadTree(dist, prev)
	return dist, prev
}

// extractPath walks a read-back predecessor tree from dst to src.
func extractPath(n *Network, src, dst int32, dist []float64, prev []int32) (Path, bool) {
	if math.IsInf(dist[dst], 1) {
		return Path{}, false
	}
	return n.walkPath(src, dst, func(v int32) int32 { return prev[v] }, dist[dst])
}

func randomBans(r *rand.Rand, n *Network, frac float64) map[int32]bool {
	banned := map[int32]bool{}
	for li := range n.Links {
		if r.Float64() < frac {
			banned[int32(li)] = true
		}
	}
	return banned
}

func compareAll(t *testing.T, n *Network, dist, wantDist []float64, prev, wantPrev []int32, tag string) {
	t.Helper()
	for v := range dist {
		if dist[v] != wantDist[v] {
			t.Fatalf("%s: dist[%d] = %v, reference %v", tag, v, dist[v], wantDist[v])
		}
		if prev[v] != wantPrev[v] {
			t.Fatalf("%s: prevLink[%d] = %d, reference %d (dist %v)", tag, v, prev[v], wantPrev[v], dist[v])
		}
	}
}

func TestDifferentialDijkstra(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := randomNet(r, 30+r.Intn(40), 80)
		src := int32(r.Intn(n.N()))
		banned := randomBans(r, n, 0.15)

		dist, prev := searchTree(n, src, banned, nil)
		wantDist, wantPrev := naiveDijkstra(n, src, noTarget, banned, nil, nil, nil)
		compareAll(t, n, dist, wantDist, prev, wantPrev, "banned")

		// Same search through a reused state: stamping must fully isolate
		// consecutive epochs.
		st := AcquireSearch()
		for li := range banned {
			st.BanLink(li)
		}
		for rep := 0; rep < 3; rep++ {
			n.Search(st, SearchSpec{Src: src})
			gotDist, gotPrev := readTree(st, n)
			compareAll(t, n, gotDist, wantDist, gotPrev, wantPrev, "reused state")
		}
		st.Release()
	}
}

func TestDifferentialExpand(t *testing.T) {
	for seed := int64(100); seed < 115; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := randomNet(r, 40, 90)
		src := int32(r.Intn(n.N()))
		expand := func(v int32) bool { return !n.IsGroundSide(v) }

		dist, prev := searchTree(n, src, nil, expand)
		wantDist, wantPrev := naiveDijkstra(n, src, noTarget, nil, nil, expand, nil)
		compareAll(t, n, dist, wantDist, prev, wantPrev, "sat-transit")

		// The restricted search must agree with ShortestPathSatTransit's
		// extracted route hop for hop.
		for dst := int32(0); dst < int32(n.N()); dst++ {
			p, ok := n.ShortestPathSatTransit(src, dst)
			wp, wok := extractPath(n, src, dst, wantDist, wantPrev)
			if ok != wok {
				t.Fatalf("seed %d: sat-transit %d→%d reachable=%v, reference %v", seed, src, dst, ok, wok)
			}
			if ok && !samePath(p, wp) {
				t.Fatalf("seed %d: sat-transit path %d→%d = %v, reference %v", seed, src, dst, p.Links, wp.Links)
			}
		}
	}
}

func TestDifferentialNodeBans(t *testing.T) {
	for seed := int64(200); seed < 215; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := randomNet(r, 35, 70)
		src := int32(r.Intn(n.N()))
		bannedNodes := map[int32]bool{}
		for v := int32(0); v < int32(n.N()); v++ {
			if v != src && r.Intn(5) == 0 {
				bannedNodes[v] = true
			}
		}

		st := AcquireSearch()
		for v := range bannedNodes {
			st.BanNode(v)
		}
		n.Search(st, SearchSpec{Src: src})
		dist, prev := readTree(st, n)
		st.Release()

		wantDist, wantPrev := naiveDijkstra(n, src, noTarget, nil, bannedNodes, nil, nil)
		compareAll(t, n, dist, wantDist, prev, wantPrev, "node bans")
	}
}

func TestDifferentialKDisjoint(t *testing.T) {
	for seed := int64(300); seed < 315; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := randomNet(r, 40, 100)
		src, dst := int32(r.Intn(n.N())), int32(r.Intn(n.N()))
		if src == dst {
			continue
		}
		got := n.KDisjointPaths(src, dst, 4)

		// Reference: successive naive searches, banning each found path's
		// links — the exact peeling KDisjointPaths performs.
		banned := map[int32]bool{}
		var want []Path
		for i := 0; i < 4; i++ {
			wd, wp := naiveDijkstra(n, src, dst, banned, nil, nil, nil)
			p, ok := extractPath(n, src, dst, wd, wp)
			if !ok {
				break
			}
			want = append(want, p)
			for _, li := range p.Links {
				banned[li] = true
			}
		}

		if len(got) != len(want) {
			t.Fatalf("seed %d: KDisjointPaths found %d paths, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if !samePath(got[i], want[i]) {
				t.Fatalf("seed %d: disjoint path %d = %v, reference %v", seed, i, got[i].Links, want[i].Links)
			}
			if got[i].OneWayMs != want[i].OneWayMs {
				t.Fatalf("seed %d: disjoint path %d delay %v, reference %v", seed, i, got[i].OneWayMs, want[i].OneWayMs)
			}
		}
	}
}

func TestDifferentialCostHook(t *testing.T) {
	for seed := int64(400); seed < 412; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := randomNet(r, 35, 80)
		src := int32(r.Intn(n.N()))
		load := make([]float64, len(n.Links))
		for li := range load {
			load[li] = float64(r.Intn(4))
		}
		cost := func(li int32) float64 {
			l := n.Links[li]
			if load[li] >= 3 { // saturate some links entirely
				return math.Inf(1)
			}
			u := load[li] / l.CapGbps
			return l.OneWayMs * (1 + 8*u*u)
		}

		st := AcquireSearch()
		n.Search(st, SearchSpec{Src: src, Cost: cost})
		dist, prev := readTree(st, n)
		wantDist, wantPrev := naiveDijkstra(n, src, noTarget, nil, nil, nil, cost)
		compareAll(t, n, dist, wantDist, prev, wantPrev, "cost hook")

		// Under a cost hook, Dist is accumulated cost but extracted paths
		// must still report true propagation delay.
		for dst := int32(0); dst < int32(n.N()); dst++ {
			p, ok := st.Path(dst)
			if !ok {
				continue
			}
			var delay float64
			for _, li := range p.Links {
				delay += n.Links[li].OneWayMs
			}
			if math.Abs(p.OneWayMs-delay) > 1e-9 {
				t.Fatalf("seed %d: cost-hook path to %d reports %v ms, links sum to %v", seed, dst, p.OneWayMs, delay)
			}
		}
		st.Release()
	}
}

// TestSearchStatePoolConcurrent hammers pooled SearchState reuse from many
// goroutines against two different networks at once; run under -race it
// proves states never leak between workers and stale stamps never bleed
// across networks of different sizes.
func TestSearchStatePoolConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	big := randomNet(r, 120, 300)
	small := randomNet(r, 20, 40)
	nets := []*Network{big, small}

	type ref struct {
		dist []float64
		prev []int32
	}
	want := map[*Network][]ref{}
	for _, n := range nets {
		for src := int32(0); src < int32(n.N()); src++ {
			d, p := naiveDijkstra(n, src, noTarget, nil, nil, nil, nil)
			want[n] = append(want[n], ref{d, p})
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for iter := 0; iter < 50; iter++ {
				n := nets[r.Intn(len(nets))]
				src := int32(r.Intn(n.N()))
				st := AcquireSearch()
				n.Search(st, SearchSpec{Src: src})
				d, p := readTree(st, n)
				st.Release()
				rf := want[n][src]
				for v := range d {
					if d[v] != rf.dist[v] || p[v] != rf.prev[v] {
						t.Errorf("worker %d iter %d: src %d node %d: got (%v,%d) want (%v,%d)",
							w, iter, src, v, d[v], p[v], rf.dist[v], rf.prev[v])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestSearchStateReuseAcrossModes runs one SearchState through a
// Stop-abandoned search (which leaves queued heap slots behind), a banned
// k-disjoint peeling sequence, ClearBans and a plain search. Every completed
// search must match the naive reference: neither stale heap positions nor a
// stuck ban flag may leak from one search into the next.
func TestSearchStateReuseAcrossModes(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	n := randomNet(r, 1500, 3000)
	st := AcquireSearch()
	defer st.Release()

	polls := 0
	stop := func() bool { polls++; return polls > 1 } // abandon after stopPollInterval pops
	if n.Search(st, SearchSpec{Src: 0, Stop: stop}) {
		t.Fatal("search should have been abandoned at the second Stop poll")
	}
	if len(st.heap) == 0 {
		t.Fatal("abandoned search left no queued nodes; the test exercises nothing")
	}

	src, dst := int32(3), int32(1234)
	banned := map[int32]bool{}
	bannedNodes := map[int32]bool{int32(77): true}
	st.BanNode(77)
	for i := 0; i < 4; i++ {
		n.Search(st, SearchSpec{Src: src, Targets: []int32{dst}})
		dist, prev := readTree(st, n)
		wantDist, wantPrev := naiveDijkstra(n, src, dst, banned, bannedNodes, nil, nil)
		compareAll(t, n, dist, wantDist, prev, wantPrev, fmt.Sprintf("k-disjoint round %d", i))
		p, ok := st.Path(dst)
		if !ok {
			t.Fatalf("round %d: no path", i)
		}
		for _, li := range p.Links {
			st.BanLink(li)
			banned[li] = true
		}
	}

	st.ClearBans()
	if st.bans || st.NodeBanned(77) {
		t.Fatal("ClearBans left bans in force")
	}
	for _, src := range []int32{src, 0, 1499} {
		n.Search(st, SearchSpec{Src: src})
		dist, prev := readTree(st, n)
		wantDist, wantPrev := naiveDijkstra(n, src, noTarget, nil, nil, nil, nil)
		compareAll(t, n, dist, wantDist, prev, wantPrev, fmt.Sprintf("plain search from %d", src))
	}
}
