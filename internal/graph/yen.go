package graph

import (
	"container/heap"
	"math"
	"sort"

	"leosim/internal/telemetry"
)

// KShortestPaths returns up to k loopless shortest paths from src to dst in
// increasing delay order, using Yen's algorithm. Unlike KDisjointPaths the
// results may share links; this supports routing studies that trade
// diversity for path quality. Fewer than k paths are returned when the graph
// has no more loopless alternatives.
func (n *Network) KShortestPaths(src, dst int32, k int) []Path {
	if k < 1 {
		return nil
	}
	sp := telemetry.StartStageSpan(telemetry.StageYen)
	defer sp.End()
	first, ok := n.ShortestPath(src, dst)
	if !ok {
		return nil
	}
	paths := []Path{first}
	var candidates candidateHeap
	st := AcquireSearch()
	defer st.Release()

	for len(paths) < k {
		prev := paths[len(paths)-1]
		// Each node of the previous path (except the last) spawns a spur.
		for i := 0; i < len(prev.Nodes)-1; i++ {
			spurNode := prev.Nodes[i]
			rootNodes := prev.Nodes[:i+1]
			rootLinks := prev.Links[:i]

			// Ban links that would recreate an already-found path
			// sharing this root, and ban root nodes (except the spur) to
			// keep paths loopless — all epoch-stamped, no per-spur maps.
			st.ClearBans()
			for _, p := range paths {
				if len(p.Links) > i && equalPrefix(p.Nodes, rootNodes) {
					st.BanLink(p.Links[i])
				}
			}
			for _, v := range rootNodes[:len(rootNodes)-1] {
				st.BanNode(v)
			}

			spur, ok := n.spurPath(st, spurNode, dst)
			if !ok {
				continue
			}
			cand := concatPaths(n, rootNodes, rootLinks, spur)
			if !containsPath(paths, cand) && !containsCandidate(candidates, cand) {
				heap.Push(&candidates, cand)
			}
		}
		if candidates.Len() == 0 {
			break
		}
		paths = append(paths, heap.Pop(&candidates).(Path))
	}
	return paths
}

// spurPath is Dijkstra honouring st's banned links and blocked nodes.
func (n *Network) spurPath(st *SearchState, src, dst int32) (Path, bool) {
	if st.NodeBanned(dst) {
		return Path{}, false
	}
	n.Search(st, SearchSpec{Src: src, Targets: []int32{dst}})
	return st.Path(dst)
}

func equalPrefix(nodes, prefix []int32) bool {
	if len(nodes) < len(prefix) {
		return false
	}
	for i, v := range prefix {
		if nodes[i] != v {
			return false
		}
	}
	return true
}

func concatPaths(n *Network, rootNodes, rootLinks []int32, spur Path) Path {
	nodes := make([]int32, 0, len(rootNodes)+len(spur.Nodes)-1)
	nodes = append(nodes, rootNodes...)
	nodes = append(nodes, spur.Nodes[1:]...)
	links := make([]int32, 0, len(rootLinks)+len(spur.Links))
	links = append(links, rootLinks...)
	links = append(links, spur.Links...)
	total := spur.OneWayMs
	for _, li := range rootLinks {
		total += n.Links[li].OneWayMs
	}
	return Path{Nodes: nodes, Links: links, OneWayMs: total}
}

func samePath(a, b Path) bool {
	if len(a.Links) != len(b.Links) {
		return false
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			return false
		}
	}
	return true
}

func containsPath(paths []Path, p Path) bool {
	for _, q := range paths {
		if samePath(p, q) {
			return true
		}
	}
	return false
}

func containsCandidate(h candidateHeap, p Path) bool {
	for _, q := range h {
		if samePath(p, q) {
			return true
		}
	}
	return false
}

type candidateHeap []Path

func (h candidateHeap) Len() int { return len(h) }
func (h candidateHeap) Less(i, j int) bool {
	if h[i].OneWayMs != h[j].OneWayMs {
		return h[i].OneWayMs < h[j].OneWayMs
	}
	// Deterministic tie-break on link sequence.
	return lessLinks(h[i].Links, h[j].Links)
}
func (h candidateHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *candidateHeap) Push(x interface{}) { *h = append(*h, x.(Path)) }
func (h *candidateHeap) Pop() interface{} {
	old := *h
	n := len(old)
	p := old[n-1]
	*h = old[:n-1]
	return p
}

func lessLinks(a, b []int32) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// PathSetStats summarizes a set of alternative paths between one pair.
type PathSetStats struct {
	Count                  int
	MinMs, MaxMs, SpreadMs float64
	// SharedLinkFrac is the fraction of link slots shared with the best
	// path — 0 for fully disjoint alternatives.
	SharedLinkFrac float64
}

// StatsOfPaths summarizes alternatives relative to the first (best) path.
func StatsOfPaths(paths []Path) PathSetStats {
	st := PathSetStats{Count: len(paths)}
	if len(paths) == 0 {
		return st
	}
	st.MinMs = paths[0].OneWayMs
	st.MaxMs = paths[0].OneWayMs
	best := map[int32]bool{}
	for _, li := range paths[0].Links {
		best[li] = true
	}
	shared, total := 0, 0
	for _, p := range paths[1:] {
		st.MinMs = math.Min(st.MinMs, p.OneWayMs)
		st.MaxMs = math.Max(st.MaxMs, p.OneWayMs)
		for _, li := range p.Links {
			total++
			if best[li] {
				shared++
			}
		}
	}
	st.SpreadMs = st.MaxMs - st.MinMs
	if total > 0 {
		st.SharedLinkFrac = float64(shared) / float64(total)
	}
	// Keep results order-stable for callers that sort by delay.
	sort.SliceStable(paths, func(i, j int) bool { return paths[i].OneWayMs < paths[j].OneWayMs })
	return st
}
