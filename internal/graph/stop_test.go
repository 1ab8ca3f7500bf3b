package graph

import (
	"math"
	"sync/atomic"
	"testing"

	"leosim/internal/geo"
)

// lineNet builds a path graph 0-1-2-…-(n-1) with unit-ish delays.
func lineNet(n int) *Network {
	net := &Network{}
	for i := 0; i < n; i++ {
		net.AddNode(NodeCity, geo.Vec3{X: 6371 + float64(i)}, "n")
	}
	for i := 0; i < n-1; i++ {
		net.AddLink(int32(i), int32(i+1), LinkFiber, 1)
	}
	return net
}

// A Stop hook that fires immediately abandons the search before anything
// settles, and Search reports the abandonment.
func TestSearchStopImmediately(t *testing.T) {
	n := lineNet(10)
	st := AcquireSearch()
	defer st.Release()
	done := n.Search(st, SearchSpec{Src: 0, Stop: func() bool { return true }})
	if done {
		t.Fatal("Search with always-true Stop should report incompletion")
	}
}

// A Stop hook that never fires must not change any result relative to a
// plain search — the poll is observation only.
func TestSearchStopNeverFiringIsTransparent(t *testing.T) {
	n := lineNet(64)
	ref := AcquireSearch()
	defer ref.Release()
	if !n.Search(ref, SearchSpec{Src: 0}) {
		t.Fatal("plain search should complete")
	}
	var polls atomic.Int64
	st := AcquireSearch()
	defer st.Release()
	done := n.Search(st, SearchSpec{Src: 0, Stop: func() bool {
		polls.Add(1)
		return false
	}})
	if !done {
		t.Fatal("search with false Stop should complete")
	}
	if polls.Load() == 0 {
		t.Fatal("Stop was never polled")
	}
	for v := int32(0); v < int32(n.N()); v++ {
		if ref.Dist(v) != st.Dist(v) {
			t.Fatalf("node %d: dist %v != %v", v, st.Dist(v), ref.Dist(v))
		}
	}
}

// Stop firing mid-search (after the first poll window) leaves the far end
// unsettled: the kernel really did abandon work, not just report false.
func TestSearchStopMidway(t *testing.T) {
	n := lineNet(stopPollInterval * 3)
	var polls int
	st := AcquireSearch()
	defer st.Release()
	done := n.Search(st, SearchSpec{Src: 0, Stop: func() bool {
		polls++
		return polls > 1 // allow the first window, stop at the second poll
	}})
	if done {
		t.Fatal("search should have been abandoned")
	}
	last := int32(n.N() - 1)
	if !math.IsInf(st.Dist(last), 1) {
		t.Fatalf("far node settled (dist %v) despite mid-search stop", st.Dist(last))
	}
}
