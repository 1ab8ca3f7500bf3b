package graph

import (
	"math"
	"reflect"
	"testing"

	"leosim/internal/geo"
)

// Native fuzz targets: raw bytes are decoded directly into a graph topology
// (no PRNG indirection, so the fuzzer's mutations map straight onto
// structural edge cases — self-referential link lists, parallel links,
// isolated nodes, degenerate weights) and the kernel is held to the naive
// reference from differential_test.go, plus CSR structural invariants.

// fuzzNet decodes a byte stream into a small graph. Layout: byte 0 sizes the
// node set, byte 1 flags ground-side nodes, then each link consumes three
// bytes (endpoint, endpoint, quantized weight). Self-loops are skipped;
// parallel links are kept deliberately.
func fuzzNet(data []byte) *Network {
	if len(data) < 5 {
		return nil
	}
	nodes := 2 + int(data[0])%60
	n := &Network{}
	for i := 0; i < nodes; i++ {
		kind := NodeSatellite
		if data[1]&(1<<(i%8)) != 0 && i%3 == 0 {
			kind = NodeCity
		}
		n.AddNode(kind, geo.Vec3{}, "")
	}
	for i := 2; i+2 < len(data); i += 3 {
		a := int32(int(data[i]) % nodes)
		b := int32(int(data[i+1]) % nodes)
		if a == b {
			continue
		}
		w := 0.25 + 0.25*float64(data[i+2]%32)
		n.Links = append(n.Links, Link{A: a, B: b, Kind: LinkGSL, CapGbps: 1, OneWayMs: w})
	}
	n.csrValid.Store(false)
	return n
}

// FuzzSearch holds the allocation-free search kernel to the naive O(V²)
// reference on arbitrary decoded topologies: identical distances, identical
// predecessor links (pinning the (dist, node) tie-break), and an extracted
// path consistent with the distance label. A multi-target search (targets
// decoded from tgtB) must give every target the full tree's distance and
// path, and settle no node after the last target.
func FuzzSearch(f *testing.F) {
	f.Add([]byte{10, 0xAA, 0, 1, 3, 1, 2, 7, 2, 3, 1, 0, 3, 9}, uint8(0), uint8(3), uint8(0), []byte{3, 1, 3})
	f.Add([]byte{40, 0x0F, 5, 6, 2, 6, 7, 2, 7, 5, 2, 1, 2, 30}, uint8(5), uint8(7), uint8(3), []byte{7, 41, 6, 5})
	f.Add([]byte{2, 1, 0, 1, 15}, uint8(1), uint8(0), uint8(255), []byte{})
	f.Fuzz(func(t *testing.T, data []byte, srcB, dstB, banB uint8, tgtB []byte) {
		n := fuzzNet(data)
		if n == nil || len(n.Links) == 0 {
			t.Skip()
		}
		src := int32(int(srcB) % n.N())
		dst := int32(int(dstB) % n.N())
		banned := map[int32]bool{}
		for li := range n.Links {
			if banB > 0 && li%int(banB) == 0 {
				banned[int32(li)] = true
			}
		}

		dist, prev := searchTree(n, src, banned, nil)
		wantDist, wantPrev := naiveDijkstra(n, src, noTarget, banned, nil, nil, nil)
		for v := range dist {
			if dist[v] != wantDist[v] || prev[v] != wantPrev[v] {
				t.Fatalf("node %d: kernel (%v, %d) vs reference (%v, %d)",
					v, dist[v], prev[v], wantDist[v], wantPrev[v])
			}
		}

		if len(tgtB) > 0 {
			checkTargets(t, n, src, tgtB, banned, wantDist, wantPrev)
		}

		// Sat-transit restriction against the reference with the same expand.
		expand := func(v int32) bool { return !n.IsGroundSide(v) }
		gotD, gotP := searchTree(n, src, nil, expand)
		refD, refP := naiveDijkstra(n, src, noTarget, nil, nil, expand, nil)
		for v := range gotD {
			if gotD[v] != refD[v] || gotP[v] != refP[v] {
				t.Fatalf("sat-transit node %d: kernel (%v, %d) vs reference (%v, %d)",
					v, gotD[v], gotP[v], refD[v], refP[v])
			}
		}

		// Extracted path must be continuous and priced exactly at dist[dst].
		if p, ok := n.ShortestPath(src, dst); ok {
			d, _ := searchTree(n, src, nil, nil)
			if math.Abs(p.OneWayMs-d[dst]) > 1e-12*math.Max(1, d[dst]) {
				t.Fatalf("path delay %v vs dist %v", p.OneWayMs, d[dst])
			}
			at := src
			for i, li := range p.Links {
				l := n.Links[li]
				switch at {
				case l.A:
					at = l.B
				case l.B:
					at = l.A
				default:
					t.Fatalf("hop %d: link %d (%d-%d) does not touch %d", i, li, l.A, l.B, at)
				}
			}
			if at != dst {
				t.Fatalf("path ends at %d, want %d", at, dst)
			}
		}
	})
}

// checkTargets runs one search from src stopping at the targets decoded
// from tgtB, under the banned links, and holds it to the full reference
// tree (wantDist, wantPrev): each target's distance and path must match,
// and when every target is reachable no node may settle after the last one
// in (dist, node) order.
func checkTargets(t *testing.T, n *Network, src int32, tgtB []byte, banned map[int32]bool,
	wantDist []float64, wantPrev []int32) {
	t.Helper()
	targets := make([]int32, len(tgtB))
	for i, b := range tgtB {
		targets[i] = int32(int(b) % n.N())
	}
	st := AcquireSearch()
	defer st.Release()
	for li := range banned {
		st.BanLink(li)
	}
	n.Search(st, SearchSpec{Src: src, Targets: targets})
	last, allReached := int32(-1), true
	for _, tg := range targets {
		if st.Dist(tg) != wantDist[tg] {
			t.Fatalf("target %d: dist %v, full tree %v", tg, st.Dist(tg), wantDist[tg])
		}
		got, gotOK := st.Path(tg)
		want, wantOK := extractPath(n, src, tg, wantDist, wantPrev)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("target %d: path %+v (%v), full tree %+v (%v)", tg, got, gotOK, want, wantOK)
		}
		if !wantOK {
			allReached = false
		} else if last < 0 || settlesBefore(wantDist, last, tg) {
			last = tg
		}
	}
	if !allReached {
		return
	}
	for v := int32(0); v < int32(n.N()); v++ {
		popped := st.stamp[v] == st.searchStamp && st.hpos[v] < 0
		if popped && settlesBefore(wantDist, last, v) {
			t.Fatalf("node %d settled after the last target %d", v, last)
		}
	}
}

// settlesBefore reports whether a settles before b in the kernel's
// (dist, node) order.
func settlesBefore(dist []float64, a, b int32) bool {
	return dist[a] < dist[b] || (dist[a] == dist[b] && a < b)
}

// FuzzBuildCSR checks the lazily built CSR adjacency against the flat link
// list on arbitrary topologies: every link appears exactly once per endpoint,
// degrees agree, every edge slot carries its link's delay inline, and a
// RewriteLinks round-trip (the mutation path that invalidates the CSR) and
// a Clone both keep all of it consistent.
func FuzzBuildCSR(f *testing.F) {
	f.Add([]byte{6, 0, 0, 1, 1, 1, 2, 1, 4, 5, 1, 0, 5, 1})
	f.Add([]byte{3, 0xFF, 0, 1, 1, 0, 1, 1, 1, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := fuzzNet(data)
		if n == nil {
			t.Skip()
		}
		verify := func(tag string, n *Network) {
			seen := make(map[int32]int, len(n.Links))
			total := 0
			for v := int32(0); v < int32(n.N()); v++ {
				edges := n.Edges(v)
				if len(edges) != n.Degree(v) {
					t.Fatalf("%s: node %d: %d edges vs degree %d", tag, v, len(edges), n.Degree(v))
				}
				total += len(edges)
				for _, e := range edges {
					l := n.Links[e.Link]
					if l.A != v && l.B != v {
						t.Fatalf("%s: node %d lists link %d (%d-%d)", tag, v, e.Link, l.A, l.B)
					}
					if want := l.A + l.B - v; e.To != want {
						t.Fatalf("%s: link %d from %d: To=%d, want %d", tag, e.Link, v, e.To, want)
					}
					if e.W != l.OneWayMs {
						t.Fatalf("%s: link %d from %d: W=%v, link delay %v", tag, e.Link, v, e.W, l.OneWayMs)
					}
					seen[e.Link]++
				}
			}
			if total != 2*len(n.Links) {
				t.Fatalf("%s: CSR holds %d half-edges for %d links", tag, total, len(n.Links))
			}
			for li := range n.Links {
				if seen[int32(li)] != 2 {
					t.Fatalf("%s: link %d appears %d times, want 2", tag, li, seen[int32(li)])
				}
			}
		}
		verify("initial", n)
		// Reweight and drop links so a stale frozen weight would show.
		n.RewriteLinks(func(l Link) (Link, bool) {
			l.OneWayMs *= 2
			return l, l.OneWayMs < 12
		})
		verify("after rewrite", n)
		verify("clone", n.Clone())
	})
}
