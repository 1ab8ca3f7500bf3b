package graph

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"leosim/internal/safe"
	"leosim/internal/telemetry"
)

// SearchState is the reusable scratch memory of one shortest-path search:
// distance/predecessor arrays, the indexed heap's backing storage, and
// epoch-stamped link/node ban masks. Acquire one with AcquireSearch, run any
// number of searches on a single network through Network.Search, and
// Release it when done; the allocation-free inner loop is what lets
// experiment sweeps run millions of searches without touching the garbage
// collector.
//
// A SearchState is not safe for concurrent use; acquire one per worker. It
// must be used with one network at a time — AcquireSearch clears ban masks,
// so reusing a pooled state on a different network is safe after Acquire.
type SearchState struct {
	net     *Network
	src     int32
	hasCost bool

	// dist/delay/prevLink/hpos are valid for node v iff stamp[v] ==
	// searchStamp; stamping replaces the O(n) "fill with +Inf"
	// re-initialization.
	dist     []float64
	delay    []float64
	prevLink []int32
	stamp    []uint32
	// tmark[v] == searchStamp marks v as a target of the current search;
	// targets counts the marked targets not yet settled.
	tmark   []uint32
	targets int
	// hpos[v] is v's slot in heap while v is queued and -1 once popped:
	// a relaxation of a queued node sifts its entry up in place, so the
	// heap never holds more than one entry per node.
	hpos []int32

	heap []heapEntry

	// linkBan/nodeBan mark a link or node banned iff the entry equals
	// banStamp. Bans persist across searches (KDisjointPaths accumulates
	// them) until ClearBans bumps the stamp — no map, no clearing loop.
	// bans records whether any ban was set since the last ClearBans, so
	// unbanned searches skip both mask reads.
	linkBan []uint32
	nodeBan []uint32
	bans    bool

	searchStamp uint32
	banStamp    uint32
}

var searchPool = sync.Pool{New: func() interface{} { return &SearchState{} }}

// AcquireSearch returns a pooled SearchState with no bans set.
func AcquireSearch() *SearchState {
	st := searchPool.Get().(*SearchState)
	st.ClearBans()
	return st
}

// Release returns the state to the pool. The state must not be used (nor any
// value read from it) after Release.
func (st *SearchState) Release() {
	st.net = nil
	searchPool.Put(st)
}

// grow sizes the scratch arrays for a graph with nodes nodes and links
// links. Freshly grown regions hold zero stamps, which never match the
// current stamps (always ≥ 1), so grown entries start unreached/unbanned.
func (st *SearchState) grow(nodes, links int) {
	if len(st.dist) < nodes {
		st.dist = append(st.dist, make([]float64, nodes-len(st.dist))...)
		st.delay = append(st.delay, make([]float64, nodes-len(st.delay))...)
		st.prevLink = append(st.prevLink, make([]int32, nodes-len(st.prevLink))...)
		st.stamp = append(st.stamp, make([]uint32, nodes-len(st.stamp))...)
		st.hpos = append(st.hpos, make([]int32, nodes-len(st.hpos))...)
		st.tmark = append(st.tmark, make([]uint32, nodes-len(st.tmark))...)
		st.nodeBan = append(st.nodeBan, make([]uint32, nodes-len(st.nodeBan))...)
	}
	if len(st.linkBan) < links {
		st.linkBan = append(st.linkBan, make([]uint32, links-len(st.linkBan))...)
	}
}

// begin starts a new search epoch on network n.
func (st *SearchState) begin(n *Network, spec SearchSpec) {
	st.net = n
	st.src = spec.Src
	st.hasCost = spec.Cost != nil
	st.grow(n.N(), len(n.Links))
	st.searchStamp++
	if st.searchStamp == 0 { // wrapped: stale stamps could collide
		for i := range st.stamp {
			st.stamp[i] = 0
			st.tmark[i] = 0
		}
		st.searchStamp = 1
	}
	st.heap = st.heap[:0]
	st.targets = 0
	for _, t := range spec.Targets {
		if st.tmark[t] != st.searchStamp {
			st.tmark[t] = st.searchStamp
			st.targets++
		}
	}
}

// ClearBans forgets every banned link and node.
func (st *SearchState) ClearBans() {
	st.bans = false
	st.banStamp++
	if st.banStamp == 0 { // wrapped: stale stamps could collide
		for i := range st.linkBan {
			st.linkBan[i] = 0
		}
		for i := range st.nodeBan {
			st.nodeBan[i] = 0
		}
		st.banStamp = 1
	}
}

// BanLink excludes link li from subsequent searches (until ClearBans).
func (st *SearchState) BanLink(li int32) {
	if int(li) >= len(st.linkBan) {
		st.linkBan = append(st.linkBan, make([]uint32, int(li)+1-len(st.linkBan))...)
	}
	st.linkBan[li] = st.banStamp
	st.bans = true
}

// BanNode excludes node v from forwarding in subsequent searches: like a
// transit restriction, v may still terminate a path but is never expanded.
func (st *SearchState) BanNode(v int32) {
	if int(v) >= len(st.nodeBan) {
		st.nodeBan = append(st.nodeBan, make([]uint32, int(v)+1-len(st.nodeBan))...)
	}
	st.nodeBan[v] = st.banStamp
	st.bans = true
}

// NodeBanned reports whether v is currently banned from forwarding.
func (st *SearchState) NodeBanned(v int32) bool {
	return int(v) < len(st.nodeBan) && st.nodeBan[v] == st.banStamp
}

// Dist returns the settled distance of node v from the last search's source
// (+Inf if unreached). Under a Cost hook this is total cost, not delay.
func (st *SearchState) Dist(v int32) float64 {
	if st.stamp[v] != st.searchStamp {
		return math.Inf(1)
	}
	return st.dist[v]
}

// Reached reports whether the last search reached node v.
func (st *SearchState) Reached(v int32) bool { return st.stamp[v] == st.searchStamp }

// Path reconstructs the found route from the last search's source to dst.
func (st *SearchState) Path(dst int32) (Path, bool) {
	if st.stamp[dst] != st.searchStamp {
		return Path{}, false
	}
	total := st.dist[dst]
	if st.hasCost {
		total = st.delay[dst]
	}
	return st.net.walkPath(st.src, dst, func(v int32) int32 {
		if st.stamp[v] != st.searchStamp {
			return -1
		}
		return st.prevLink[v]
	}, total)
}

// ReadTree copies the last search's outcome into dist and prev, which must
// hold at least one entry per node; either may be nil to skip it. Unreached
// nodes read +Inf and -1, the source reads 0 and -1.
func (st *SearchState) ReadTree(dist []float64, prev []int32) {
	inf := math.Inf(1)
	for i := range dist {
		if st.stamp[i] == st.searchStamp {
			dist[i] = st.dist[i]
		} else {
			dist[i] = inf
		}
	}
	for i := range prev {
		if st.stamp[i] == st.searchStamp {
			prev[i] = st.prevLink[i]
		} else {
			prev[i] = -1
		}
	}
}

// heapEntry is one pending node in the priority queue. Entries are plain
// values in a flat slice — no interface boxing, no per-push allocation.
type heapEntry struct {
	node int32
	dist float64
}

// heapLess orders by (dist, node): the node tie-break makes settle order —
// and therefore predecessor choice on equal-distance ties — deterministic
// and identical to a linear-scan reference Dijkstra.
func heapLess(a, b heapEntry) bool {
	return a.dist < b.dist || (a.dist == b.dist && a.node < b.node)
}

// The queue is an indexed 4-ary implicit heap with decrease-key.
// Quaternary beats binary here: sift-downs dominate Dijkstra's pop-heavy
// workload and a 4-ary heap halves their depth at the cost of a few extra
// comparisons per level, all within one cache line of heapEntry values.
// Every placement records the entry's slot in hpos so a relaxation can find
// and sift up a queued node's entry instead of pushing a duplicate.

// hpush queues a node that is not in the heap.
func (st *SearchState) hpush(e heapEntry) {
	st.heap = append(st.heap, e)
	st.siftUp(len(st.heap)-1, e)
}

// siftUp places e at slot i or above; e's key must not exceed the key that
// slot i held.
func (st *SearchState) siftUp(i int, e heapEntry) {
	h := st.heap
	for i > 0 {
		p := (i - 1) >> 2
		if !heapLess(e, h[p]) {
			break
		}
		h[i] = h[p]
		st.hpos[h[i].node] = int32(i)
		i = p
	}
	h[i] = e
	st.hpos[e.node] = int32(i)
}

// hpop removes and returns the minimum entry, marking its node unqueued.
func (st *SearchState) hpop() heapEntry {
	h := st.heap
	top := h[0]
	st.hpos[top.node] = -1
	n := len(h) - 1
	e := h[n]
	h = h[:n]
	st.heap = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		// Keep the best child's key in registers rather than re-reading
		// h[best] at every comparison.
		best, bk := c, h[c]
		for j := c + 1; j < end; j++ {
			if k := h[j]; heapLess(k, bk) {
				best, bk = j, k
			}
		}
		if !heapLess(bk, e) {
			break
		}
		h[i] = bk
		st.hpos[bk.node] = int32(i)
		i = best
	}
	h[i] = e
	st.hpos[e.node] = int32(i)
	return top
}

// SearchSpec parameterizes one run of the unified Dijkstra kernel.
type SearchSpec struct {
	// Src is the source node.
	Src int32
	// Targets, when non-nil, stops the search once every listed node is
	// settled (distances and predecessors of settled nodes are final, so
	// stopping early changes none of them); duplicates count once. A nil
	// or empty slice settles every reachable node.
	Targets []int32
	// Expand, when non-nil, restricts forwarding: edges are only relaxed
	// out of nodes for which Expand returns true (the source is always
	// expanded). This implements transit restrictions — e.g. §6's "pure
	// ISL path" model forbids ground terminals as intermediate hops.
	Expand func(int32) bool
	// Cost, when non-nil, replaces the link weight (default: propagation
	// delay). Returning +Inf excludes the link. The kernel then tracks
	// propagation delay separately so extracted paths still report true
	// OneWayMs; Dist returns accumulated cost.
	Cost func(int32) float64
	// Stop, when non-nil, is polled every stopPollInterval settled nodes
	// (and once before the first); returning true abandons the search,
	// making Search return false. This is how request-context cancellation
	// reaches the kernel: servers set Stop to poll ctx.Err. An abandoned
	// search leaves the state partially settled — treat its results as
	// invalid.
	Stop func() bool
}

// stopPollInterval spaces SearchSpec.Stop polls: frequent enough that a
// cancelled request dies within microseconds, rare enough that the hot
// relax loop never notices the check.
const stopPollInterval = 1024

// Search runs Dijkstra from spec.Src over the network's CSR adjacency into
// st, honouring st's link/node bans. It is the single kernel behind every
// routing entry point: plain and transit-restricted shortest paths, k
// edge-disjoint paths, Yen's algorithm, and the congestion-aware router.
// The inner loop performs no allocation and no hashing, and reads each
// edge's weight from the CSR slot itself.
//
// Nodes settle in (dist, node) order: that is a strict total order, so the
// decrease-key heap pops exactly the sequence any exact priority queue
// would. A node that improves after it was popped — only a Cost hook that
// breaks Dijkstra's premise can cause it — is queued and expanded again.
//
// Search reports whether it ran to completion: false means spec.Stop
// abandoned it and st holds partial, unusable results.
func (n *Network) Search(st *SearchState, spec SearchSpec) bool {
	// One span per search, outside the loop: with telemetry disabled this
	// is a single atomic load, preserving the kernel's allocation-free
	// profile (verified by BenchmarkSearch vs BENCH_telemetry.json).
	sp := telemetry.StartStageSpan(telemetry.StageSearch)
	defer sp.End()
	n.ensureCSR()
	st.begin(n, spec)
	ss := st.searchStamp
	st.dist[spec.Src] = 0
	st.prevLink[spec.Src] = -1
	if st.hasCost {
		st.delay[spec.Src] = 0
	}
	st.stamp[spec.Src] = ss
	st.hpush(heapEntry{node: spec.Src})
	bans, targeted := st.bans, st.targets > 0
	pops := 0
	for len(st.heap) > 0 {
		if spec.Stop != nil && pops%stopPollInterval == 0 && spec.Stop() {
			return false
		}
		pops++
		it := st.hpop()
		u := it.node
		if targeted && st.tmark[u] == ss {
			st.tmark[u] = 0 // a re-popped target counts once
			if st.targets--; st.targets == 0 {
				break // every target settled: their labels are final
			}
		}
		if u != spec.Src {
			if bans && st.nodeBan[u] == st.banStamp {
				continue
			}
			if spec.Expand != nil && !spec.Expand(u) {
				continue
			}
		}
		lo, hi := n.adjStart[u], n.adjStart[u+1]
		for _, e := range n.adjEdges[lo:hi] {
			if bans && st.linkBan[e.Link] == st.banStamp {
				continue
			}
			w := e.W
			if spec.Cost != nil {
				w = spec.Cost(e.Link)
				if math.IsInf(w, 1) {
					continue
				}
			}
			nd := it.dist + w
			v := e.To
			queued := st.stamp[v] == ss
			if queued {
				if nd >= st.dist[v] {
					continue
				}
				queued = st.hpos[v] >= 0
			}
			st.dist[v] = nd
			st.prevLink[v] = e.Link
			st.stamp[v] = ss
			if st.hasCost {
				st.delay[v] = st.delay[u] + e.W
			}
			if queued {
				st.siftUp(int(st.hpos[v]), heapEntry{node: v, dist: nd})
			} else {
				st.hpush(heapEntry{node: v, dist: nd})
			}
		}
	}
	return true
}

// TreeJob is one shortest-path tree for Trees: a search from Src that stops
// once every node in Targets is settled (nil Targets settle every reachable
// node).
type TreeJob struct {
	Src     int32
	Targets []int32
}

// Trees is the pairs-to-paths primitive: it runs one search per job on
// GOMAXPROCS workers, each holding one pooled SearchState, and calls visit
// with the job's index and the state holding its settled tree. expand, when
// non-nil, is every job's SearchSpec.Expand. visit runs concurrently for
// different jobs and must only write per-job (or per-pair) slots; the state
// is valid until visit returns.
//
// The CSR is frozen once before the fan-out, and the whole fan-out is one
// StageSearch span on ctx's recorder. ctx is checked between jobs: a
// cancelled fan-out returns ctx.Err(). The first visit error stops the
// remaining jobs and is returned; a panic comes back as a *safe.PanicError.
func (n *Network) Trees(ctx context.Context, jobs []TreeJob, expand func(int32) bool, visit func(job int, st *SearchState) error) error {
	defer telemetry.RecordSpan(ctx, telemetry.StageSearch).End()
	n.ensureCSR()
	workers := min(runtime.GOMAXPROCS(0), len(jobs))
	var next atomic.Int64
	g := safe.NewGroup(ctx, workers)
	for w := 0; w < workers; w++ {
		g.Go(func() error {
			st := AcquireSearch()
			defer st.Release()
			// However this worker ends, no job starts after it: on a
			// clean exit the counter is already past the end.
			defer next.Store(int64(len(jobs)))
			for j := int(next.Add(1) - 1); j < len(jobs); j = int(next.Add(1) - 1) {
				if err := ctx.Err(); err != nil {
					return err
				}
				n.Search(st, SearchSpec{Src: jobs[j].Src, Targets: jobs[j].Targets, Expand: expand})
				if err := visit(j, st); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return g.Wait()
}

// walkPath reconstructs the node/link sequence from dst back to src given a
// predecessor-link lookup, in one backward pass into exactly-sized slices.
// It is the one shared back-walk behind every path extraction (including the
// congestion-aware router's), with a cycle guard in case prevAt is
// inconsistent.
func (n *Network) walkPath(src, dst int32, prevAt func(int32) int32, total float64) (Path, bool) {
	hops := 0
	for at := dst; at != src; {
		li := prevAt(at)
		if li < 0 {
			return Path{}, false
		}
		if l := n.Links[li]; l.A == at {
			at = l.B
		} else {
			at = l.A
		}
		hops++
		if hops > n.N() {
			return Path{}, false // cycle guard
		}
	}
	nodes := make([]int32, hops+1)
	links := make([]int32, hops)
	at := dst
	for i := hops; i > 0; i-- {
		li := prevAt(at)
		nodes[i] = at
		links[i-1] = li
		if l := n.Links[li]; l.A == at {
			at = l.B
		} else {
			at = l.A
		}
	}
	nodes[0] = src
	return Path{Nodes: nodes, Links: links, OneWayMs: total}, true
}
