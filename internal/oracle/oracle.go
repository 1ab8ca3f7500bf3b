// Package oracle precomputes per-snapshot distance oracles over frozen CSR
// snapshot graphs, trading a one-time build per snapshot epoch for
// microsecond path queries afterwards — the serving-scale layer ROADMAP
// calls for: `leosim serve` pays ~2 ms of Dijkstra per (pair, snapshot)
// cache miss, which caps it far below planetary-scale query volumes.
//
// Two cooperating structures, both exact:
//
//   - Hub labels: one full shortest-path tree per city terminal (the query
//     endpoints of the serving API), computed by the very same Dijkstra
//     kernel (graph.Network.Search) the uncached path answers run through.
//     Sharing the kernel is what makes the oracle *provably* exact rather
//     than approximately so: distances are bit-identical and the stored
//     predecessor trees reconstruct the identical tie-broken path, byte for
//     byte (the differential battery in oracle_test.go pins this across
//     motifs, fault masks and presets). Of each tree the oracle keeps the
//     predecessor link of every node but the distance of the city nodes
//     only — the ncity × ncity matrix DistMs and Query read.
//   - ALT landmarks: a handful of city sites chosen by farthest-point
//     selection whose full distance rows double as triangle-inequality
//     lower bounds |d(l,u) − d(l,v)| ≤ d(u,v). The bounds are admissible
//     and consistent, so they drive an exact goal-directed A* (PathBetween)
//     for pairs the labels don't cover — arbitrary node pairs, not just
//     cities — and give the property tests an invariant to hold the labels
//     against.
//
// At the reduced scale (150 cities, ~3.9 k nodes) that is ~2.3 MB of
// predecessor trees, a 180 KB city matrix and 247 KB of landmark rows per
// snapshot.
//
// An Oracle is immutable after Build and safe for unbounded concurrent
// readers; it is pinned to the exact *graph.Network instance (and mutation
// epoch) it was built from. The snapshot cache carries oracles alongside
// their snapshots (snapcache.Attach), so an oracle rides the same
// LRU/TTL/generation lifecycle as its graph and can never outlive it.
package oracle

import (
	"context"
	"fmt"
	"math"
	"time"

	"leosim/internal/graph"
	"leosim/internal/telemetry"
)

// DefaultLandmarks is the ALT landmark count when Options leaves it zero.
// Eight is the classic sweet spot: bounds tighten quickly with the first few
// well-spread landmarks and flatten long before memory cost does.
const DefaultLandmarks = 8

// Options tunes Build.
type Options struct {
	// Landmarks is the number of ALT landmarks selected from the city
	// sites (default DefaultLandmarks, capped at the city count).
	Landmarks int
}

// Stats describes a built oracle.
type Stats struct {
	// Sources is the number of hub-label trees (one per city).
	Sources int
	// Landmarks is the number of ALT landmarks selected.
	Landmarks int
	// Nodes is the node count of the underlying snapshot graph.
	Nodes int
	// BuildDuration is the wall time Build spent.
	BuildDuration time.Duration
	// Bytes approximates resident label memory: the city distance matrix,
	// the landmark distance rows and the predecessor trees.
	Bytes int64
}

// Oracle answers exact shortest-path queries over one frozen snapshot graph.
type Oracle struct {
	net   *graph.Network
	epoch uint64
	nn    int // node count
	ncity int

	// prev holds the per-city predecessor trees, row-major: row i (the
	// tree rooted at city i's node) occupies [i*nn, (i+1)*nn), with -1 at
	// the root and unreached nodes.
	prev []int32
	// cityDist is the ncity × ncity matrix of city-to-city distances read
	// off the same trees: entry i*ncity+j is d(city i, city j), +Inf when
	// disconnected.
	cityDist []float64

	// landmarks indexes the chosen landmark cities; landDist row k holds
	// the distance from landmarks[k] to every node (+Inf if unreached).
	landmarks []int
	landDist  []float64

	buildTime time.Duration
}

// Build constructs the oracle for n: one full shortest-path tree per city,
// run in parallel through graph.Network.Trees, plus ALT landmark selection.
// The context cancels the fan-out between sources; a cancelled build returns
// ctx.Err() and no oracle.
func Build(ctx context.Context, n *graph.Network, opts Options) (*Oracle, error) {
	sp := telemetry.StartStageSpan(telemetry.StageOracleBuild)
	defer sp.End()
	start := time.Now()
	nn := n.N()
	ncity := n.NumCity
	if ncity == 0 {
		return nil, fmt.Errorf("oracle: network has no city terminals to label")
	}
	o := &Oracle{
		net:      n,
		epoch:    n.Epoch(),
		nn:       nn,
		ncity:    ncity,
		prev:     make([]int32, ncity*nn),
		cityDist: make([]float64, ncity*ncity),
	}
	jobs := make([]graph.TreeJob, ncity)
	for city := range jobs {
		jobs[city].Src = n.CityNode(city)
	}
	err := n.Trees(ctx, jobs, nil, func(city int, st *graph.SearchState) error {
		st.ReadTree(nil, o.prev[city*nn:(city+1)*nn])
		row := o.cityDist[city*ncity : (city+1)*ncity]
		for c := range row {
			row[c] = st.Dist(n.CityNode(c))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.landmarks = selectLandmarks(o, opts.Landmarks)
	o.landDist = make([]float64, len(o.landmarks)*nn)
	for k, lc := range o.landmarks {
		o.treeDist(lc, o.landDist[k*nn:(k+1)*nn])
	}
	o.buildTime = time.Since(start)
	return o, nil
}

// treeDist fills row with the distance from city src to every node,
// recomputed from src's stored predecessor tree: a node's distance is its
// parent's plus the tree link's delay — the very addition by which the
// kernel set the node's final label — so the row is bit-identical to the
// kernel's distances.
func (o *Oracle) treeDist(src int, row []float64) {
	prev := o.prev[src*o.nn : (src+1)*o.nn]
	links := o.net.Links
	for v := range row {
		row[v] = -1 // not yet resolved; real distances are ≥ 0
	}
	row[o.net.CityNode(src)] = 0
	var stack []int32
	for v := range row {
		// Climb to the nearest resolved ancestor, then resolve the climbed
		// nodes top-down.
		at := int32(v)
		for row[at] < 0 {
			if prev[at] < 0 {
				row[at] = math.Inf(1) // unreached
				break
			}
			stack = append(stack, at)
			l := links[prev[at]]
			at = l.A + l.B - at
		}
		for len(stack) > 0 {
			w := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			l := links[prev[w]]
			row[w] = row[l.A+l.B-w] + l.OneWayMs
		}
	}
}

// selectLandmarks picks k landmark cities by farthest-point (maxmin)
// selection over the city distance matrix: start from city 0 (the
// most populous — a natural ground hub), then repeatedly add the city
// maximizing its minimum distance to the chosen set. Disconnected cities
// (infinite distance to every chosen landmark) are skipped — a landmark that
// cannot see the main component bounds nothing.
func selectLandmarks(o *Oracle, k int) []int {
	if k <= 0 {
		k = DefaultLandmarks
	}
	if k > o.ncity {
		k = o.ncity
	}
	chosen := make([]int, 0, k)
	chosen = append(chosen, 0)
	minDist := make([]float64, o.ncity)
	for c := range minDist {
		minDist[c] = o.DistMs(0, c)
	}
	for len(chosen) < k {
		best, bestD := -1, -1.0
		for c := 0; c < o.ncity; c++ {
			d := minDist[c]
			if math.IsInf(d, 1) || d <= 0 {
				continue // unreachable from the chosen set, or already chosen
			}
			if d > bestD {
				best, bestD = c, d
			}
		}
		if best < 0 {
			break // every remaining city is co-located or disconnected
		}
		chosen = append(chosen, best)
		for c := 0; c < o.ncity; c++ {
			if d := o.DistMs(best, c); d < minDist[c] {
				minDist[c] = d
			}
		}
	}
	return chosen
}

// Valid reports whether the oracle still describes n: the same network
// instance at the same mutation epoch. A snapshot the incremental advancer
// has stepped past (or a rebuilt cache entry) fails this check, and callers
// must rebuild rather than serve answers about a topology that no longer
// exists.
func (o *Oracle) Valid(n *graph.Network) bool {
	return o.net == n && o.epoch == n.Epoch()
}

// Stats summarizes the built oracle.
func (o *Oracle) Stats() Stats {
	return Stats{
		Sources:       o.ncity,
		Landmarks:     len(o.landmarks),
		Nodes:         o.nn,
		BuildDuration: o.buildTime,
		Bytes:         int64(len(o.cityDist)+len(o.landDist))*8 + int64(len(o.prev))*4,
	}
}

// Sources returns the number of labelled sources (cities).
func (o *Oracle) Sources() int { return o.ncity }

// Landmarks returns the landmark cities' indices (for tests and metrics).
func (o *Oracle) Landmarks() []int { return append([]int(nil), o.landmarks...) }

// DistMs returns the exact one-way shortest-path delay between two cities
// in milliseconds, +Inf when the pair is disconnected at this snapshot. It
// is a single array read.
func (o *Oracle) DistMs(srcCity, dstCity int) float64 {
	return o.cityDist[srcCity*o.ncity+dstCity]
}

// Query returns the exact shortest path between two cities, reconstructed
// from city srcCity's stored predecessor tree — node for node and link for
// link the path the Dijkstra kernel would find, including equal-distance
// tie-breaks (the kernel's (dist, node) settle order is deterministic and
// the tree stores its choices). ok is false when the pair is disconnected.
func (o *Oracle) Query(srcCity, dstCity int) (graph.Path, bool) {
	sp := telemetry.StartStageSpan(telemetry.StageOracleQuery)
	defer sp.End()
	src := o.net.CityNode(srcCity)
	dst := o.net.CityNode(dstCity)
	total := o.DistMs(srcCity, dstCity)
	if math.IsInf(total, 1) {
		return graph.Path{}, false
	}
	row := o.prev[srcCity*o.nn : (srcCity+1)*o.nn]
	return o.net.WalkPath(src, dst, func(v int32) int32 { return row[v] }, total)
}

// Bound returns an admissible lower bound on the one-way delay between any
// two nodes via the ALT triangle inequality over the landmark trees:
// |d(l,u) − d(l,v)| ≤ d(u,v) for every landmark l. A +Inf bound proves the
// pair disconnected (one endpoint is in a landmark's component, the other is
// not — in an undirected graph that separates them). The bound never
// exceeds the true distance (property-tested).
func (o *Oracle) Bound(u, v int32) float64 {
	if u == v {
		return 0
	}
	bound := 0.0
	for k := range o.landmarks {
		row := o.landDist[k*o.nn : (k+1)*o.nn]
		du, dv := row[u], row[v]
		uInf, vInf := math.IsInf(du, 1), math.IsInf(dv, 1)
		if uInf != vInf {
			return math.Inf(1) // provably separated components
		}
		if uInf {
			continue // landmark sees neither endpoint: no information
		}
		if b := math.Abs(du - dv); b > bound {
			bound = b
		}
	}
	return bound
}

// PathBetween returns an exact shortest path between two arbitrary nodes,
// found by ALT-guided A* over the frozen CSR graph with Bound as the
// heuristic. The landmark bounds are consistent, so the first settle of dst
// is optimal: the returned delay equals the Dijkstra kernel's exactly (the
// differential tests check it). The path itself is a shortest path, though
// equal-cost ties may break differently from plain Dijkstra — callers who
// need the kernel's byte-identical tie-breaks should use Query, which covers
// every serving endpoint pair. ok is false when the pair is disconnected.
//
// This is the non-precomputed escape hatch — satellite-to-satellite
// diagnostics, relay probes — not the batched serving hot path, so it
// allocates its own scratch per call.
func (o *Oracle) PathBetween(src, dst int32) (graph.Path, bool) {
	if math.IsInf(o.Bound(src, dst), 1) {
		return graph.Path{}, false // separated components: skip the search
	}
	n := o.net
	nn := o.nn
	dist := make([]float64, nn)
	prev := make([]int32, nn)
	settled := make([]bool, nn)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	h := &astarHeap{}
	h.push(astarEntry{node: src, f: o.Bound(src, dst)})
	for h.len() > 0 {
		it := h.pop()
		if settled[it.node] {
			continue
		}
		settled[it.node] = true
		if it.node == dst {
			break
		}
		for _, e := range n.Edges(it.node) {
			nd := dist[it.node] + e.W
			if nd >= dist[e.To] {
				continue
			}
			dist[e.To] = nd
			prev[e.To] = e.Link
			hb := o.Bound(e.To, dst)
			if math.IsInf(hb, 1) {
				continue // provably cannot reach dst
			}
			h.push(astarEntry{node: e.To, f: nd + hb})
		}
	}
	if math.IsInf(dist[dst], 1) {
		return graph.Path{}, false
	}
	return n.WalkPath(src, dst, func(v int32) int32 { return prev[v] }, dist[dst])
}

// astarEntry is one pending node in the A* frontier, keyed by f = g + h.
type astarEntry struct {
	node int32
	f    float64
}

// astarHeap is a minimal binary min-heap of astarEntry values; ties break on
// node index for determinism, mirroring the kernel's convention.
type astarHeap struct{ s []astarEntry }

func (h *astarHeap) len() int { return len(h.s) }

func astarLess(a, b astarEntry) bool {
	return a.f < b.f || (a.f == b.f && a.node < b.node)
}

func (h *astarHeap) push(e astarEntry) {
	h.s = append(h.s, e)
	i := len(h.s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !astarLess(h.s[i], h.s[p]) {
			break
		}
		h.s[i], h.s[p] = h.s[p], h.s[i]
		i = p
	}
}

func (h *astarHeap) pop() astarEntry {
	top := h.s[0]
	last := len(h.s) - 1
	h.s[0] = h.s[last]
	h.s = h.s[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(h.s) && astarLess(h.s[l], h.s[best]) {
			best = l
		}
		if r < len(h.s) && astarLess(h.s[r], h.s[best]) {
			best = r
		}
		if best == i {
			break
		}
		h.s[i], h.s[best] = h.s[best], h.s[i]
		i = best
	}
	return top
}
