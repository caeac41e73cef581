// Package mcf implements integer min-cost max-flow by successive shortest
// paths with Johnson potentials (Dijkstra on reduced costs). It solves the
// escape-routing formulation of Section 5 of the paper: the paper writes the
// problem as an LP over grid flows, but its constraint matrix is a network
// matrix, so the integral min-cost flow optimum coincides with the LP
// optimum (Theorem 1's "optimal routing solution with minimized total
// cost") while directly yielding unit paths.
package mcf

import (
	"fmt"
	"math"
)

// Graph is a directed flow network over nodes 0..n-1.
//
// Adjacency is kept in compressed (CSR) form: the arc ids leaving node u are
// adj[off[u]:off[u+1]], in increasing id order. It is built lazily by the
// first solve after the structure changed (AddArc or AddNode), so building
// the network costs one append per arc instead of one per arc end; Reset,
// Commit and SetCost leave the structure alone and keep the CSR valid.
type Graph struct {
	n    int
	arcs []arc   // forward/backward arcs interleaved: arc i pairs with i^1
	orig []int32 // as-built capacity per arc pair (indexed id/2), for Reset
	off  []int32 // CSR offsets, len n+1 once built
	adj  []int32 // CSR arc ids, len(arcs) once built
}

type arc struct {
	to   int32
	cap  int32 // residual capacity
	cost int32
}

// NewGraph returns an empty network with n nodes.
func NewGraph(n int) *Graph {
	if n <= 0 {
		panic(fmt.Sprintf("mcf: invalid node count %d", n))
	}
	return &Graph{n: n}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// AddNode appends one node and returns its index.
func (g *Graph) AddNode() int {
	g.n++
	return g.n - 1
}

// AddArc adds a directed arc with the given capacity and per-unit cost and
// returns its identifier for later Flow queries. Capacity must be
// non-negative.
func (g *Graph) AddArc(from, to, capacity, cost int) int {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		panic(fmt.Sprintf("mcf: arc %d->%d out of range (n=%d)", from, to, g.n))
	}
	if capacity < 0 {
		panic("mcf: negative capacity")
	}
	id := len(g.arcs)
	g.arcs = append(g.arcs, arc{to: int32(to), cap: int32(capacity), cost: int32(cost)})
	g.arcs = append(g.arcs, arc{to: int32(from), cap: 0, cost: int32(-cost)})
	g.orig = append(g.orig, int32(capacity))
	return id
}

// adjacency returns the CSR arrays, rebuilding them if arcs or nodes were
// added since the last build. Arc ids go in increasing order per node — the
// order AddArc created them in — which fixes every relaxation tie-break.
// Arc i leaves node arcs[i^1].to.
func (g *Graph) adjacency() (off, adj []int32) {
	if len(g.off) == g.n+1 && len(g.adj) == len(g.arcs) {
		return g.off, g.adj
	}
	if cap(g.off) < g.n+1 {
		g.off = make([]int32, g.n+1)
	}
	g.off = g.off[:g.n+1]
	clear(g.off)
	if cap(g.adj) < len(g.arcs) {
		g.adj = make([]int32, len(g.arcs))
	}
	g.adj = g.adj[:len(g.arcs)]
	for i := range g.arcs {
		g.off[g.arcs[i^1].to+1]++
	}
	for u := 0; u < g.n; u++ {
		g.off[u+1] += g.off[u]
	}
	// Fill with off[u] as node u's cursor, then shift the cursors (now each
	// node's end) back into starts.
	for i := range g.arcs {
		u := g.arcs[i^1].to
		g.adj[g.off[u]] = int32(i)
		g.off[u]++
	}
	copy(g.off[1:], g.off[:g.n])
	g.off[0] = 0
	return g.off, g.adj
}

// Reset restores every arc to its as-built capacity, erasing all flow —
// including flow absorbed by Commit. The graph structure (nodes, arcs,
// costs) is untouched, so a caller can rebuild the network state between
// solver rounds without re-adding arcs or reallocating adjacency.
func (g *Graph) Reset() {
	for i := 0; i < len(g.arcs); i += 2 {
		g.arcs[i].cap = g.orig[i>>1]
		g.arcs[i^1].cap = 0
	}
}

// Commit absorbs the current flow into the capacities: every forward arc
// keeps its (already reduced) residual capacity, and the backward residual
// is zeroed so later MinCostFlow calls can neither cancel the committed
// flow nor see it via Flow/DecomposeUnitPaths. Sequential per-net routing
// on one shared graph uses it between nets: each net's decomposition then
// observes only its own unit of flow. Reset undoes all commits.
func (g *Graph) Commit() {
	for i := 0; i < len(g.arcs); i += 2 {
		g.arcs[i^1].cap = 0
	}
}

// SetCost re-prices arc id (an AddArc identifier) to cost, updating the
// paired backward arc to -cost. Re-pricing an arc that currently carries
// flow would corrupt the residual-cost invariant, so it panics; call it
// only on a flow-free graph (fresh, Reset, or after Commit).
func (g *Graph) SetCost(id, cost int) {
	if g.arcs[id^1].cap != 0 {
		panic(fmt.Sprintf("mcf: SetCost on arc %d carrying flow", id))
	}
	g.arcs[id].cost = int32(cost)
	g.arcs[id^1].cost = int32(-cost)
}

// Flow returns the flow pushed through arc id (0 before solving).
func (g *Graph) Flow(id int) int { return int(g.arcs[id^1].cap) }

// Cost returns the cost of arc id.
func (g *Graph) Cost(id int) int { return int(g.arcs[id].cost) }

// To returns the head node of arc id.
func (g *Graph) To(id int) int { return int(g.arcs[id].to) }

const inf = math.MaxInt64 / 4

// MinCostFlow pushes up to maxFlow units from s to t (maxFlow < 0 means
// maximum flow) along successive shortest paths and returns the flow value
// and total cost. Costs may be negative only on arcs out of s reachable in
// the first Bellman-Ford potential pass; the general case is handled by the
// initial Bellman-Ford.
//
// The call allocates fresh solver state; callers that solve repeatedly on
// the same (or equally sized) graphs should hold a Solver and reuse it.
func (g *Graph) MinCostFlow(s, t, maxFlow int) (flow, cost int) {
	var sv Solver
	return sv.MinCostFlow(g, s, t, maxFlow)
}

// Solver is a reusable arena for MinCostFlow runs: the potential, distance,
// and predecessor tables plus the Dijkstra frontier persist across calls, so
// repeated solves — the hierarchical global stage re-prices and re-solves
// one tile graph every negotiation round — allocate nothing in steady state.
// A Solver is not safe for concurrent use; the graph it runs on may change
// between calls (the arrays resize on demand).
//
// The frontier is a hand-rolled binary heap with the same sift order as
// container/heap over a d-ordered slice, so the node settle order — and with
// it every tie-break in the computed flow — is identical to the boxed
// implementation it replaced.
//
// Work per augmentation is proportional to the nodes the Dijkstra pass
// touched, not to the graph: dist is kept at inf between passes by resetting
// only the touched nodes, and the potential update is applied to touched
// nodes only, shifted so untouched nodes need no write (see MinCostFlow).
type Solver struct {
	pot     []int64
	dist    []int64 // inf everywhere between Dijkstra passes
	inqArc  []int32
	touched []int32 // nodes whose dist the current pass made finite
	heap    []nodeItem
}

// NewSolver returns an empty solver arena.
func NewSolver() *Solver { return &Solver{} }

// MinCostFlow solves on g exactly like Graph.MinCostFlow, reusing the
// solver's arrays.
func (s *Solver) MinCostFlow(g *Graph, src, dst, maxFlow int) (flow, cost int) {
	if src == dst {
		return 0, 0
	}
	if len(s.pot) < g.n {
		s.pot = make([]int64, g.n)
		s.dist = make([]int64, g.n)
		s.inqArc = make([]int32, g.n)
		for i := range s.dist {
			s.dist[i] = inf
			s.inqArc[i] = -1
		}
	}
	off, adj := g.adjacency()
	pot, dist, inqArc := s.pot[:g.n], s.dist[:g.n], s.inqArc[:g.n]
	s.initPotentials(g, src, pot)
	want := int64(inf)
	if maxFlow >= 0 {
		want = int64(maxFlow)
	}
	var totalFlow, totalCost int64
	for totalFlow < want {
		// Dijkstra with reduced costs.
		dist[src] = 0
		s.touched = append(s.touched[:0], int32(src))
		s.heap = s.heap[:0]
		s.hpush(nodeItem{node: int32(src), d: 0})
		distT := int64(inf)
		for len(s.heap) > 0 {
			it := s.hpop()
			u := int(it.node)
			if it.d > dist[u] {
				continue
			}
			if u == dst {
				distT = it.d
				break // early exit: nodes beyond t keep dist >= distT
			}
			for _, ai := range adj[off[u]:off[u+1]] {
				a := g.arcs[ai]
				if a.cap <= 0 {
					continue
				}
				v := int(a.to)
				nd := dist[u] + int64(a.cost) + pot[u] - pot[v]
				if nd < dist[v] {
					if dist[v] == inf {
						s.touched = append(s.touched, int32(v))
					}
					dist[v] = nd
					inqArc[v] = ai
					s.hpush(nodeItem{node: int32(v), d: nd})
				}
			}
		}
		if distT >= inf {
			s.clearTouched(dist, inqArc)
			break // t unreachable: done
		}
		// Potential update with early exit. The textbook step adds
		// min(dist, distT) to every node, so an untouched node gains exactly
		// distT. Subtracting distT from every node's step changes no
		// difference pot[u]-pot[v] — the only way potentials enter a reduced
		// cost — so every later comparison, and with it the settle order, is
		// the same integer as with the full sweep, while untouched nodes need
		// no write at all.
		for _, v := range s.touched {
			if d := dist[v]; d < distT {
				pot[v] += d - distT
			}
		}
		// Bottleneck along the path.
		push := want - totalFlow
		for v := dst; v != src; {
			a := g.arcs[inqArc[v]]
			if int64(a.cap) < push {
				push = int64(a.cap)
			}
			v = int(g.arcs[inqArc[v]^1].to)
		}
		for v := dst; v != src; {
			ai := inqArc[v]
			g.arcs[ai].cap -= int32(push)
			g.arcs[ai^1].cap += int32(push)
			totalCost += push * int64(g.arcs[ai].cost)
			v = int(g.arcs[ai^1].to)
		}
		totalFlow += push
		s.clearTouched(dist, inqArc)
	}
	return int(totalFlow), int(totalCost)
}

// clearTouched restores dist to inf (and inqArc to -1) on the nodes the last
// Dijkstra pass reached, re-establishing the between-passes invariant.
func (s *Solver) clearTouched(dist []int64, inqArc []int32) {
	for _, v := range s.touched {
		dist[v] = inf
		inqArc[v] = -1
	}
}

// initPotentials fills pot via Bellman-Ford from src to support negative arc
// costs. With all-nonnegative costs it converges immediately.
func (s *Solver) initPotentials(g *Graph, src int, pot []int64) {
	hasNeg := false
	for i := 0; i < len(g.arcs); i += 2 {
		if g.arcs[i].cost < 0 && g.arcs[i].cap > 0 {
			hasNeg = true
			break
		}
	}
	if !hasNeg {
		for i := range pot {
			pot[i] = 0
		}
		return
	}
	off, adj := g.adjacency()
	for i := range pot {
		pot[i] = inf
	}
	pot[src] = 0
	for iter := 0; iter < g.n; iter++ {
		changed := false
		for u := 0; u < g.n; u++ {
			if pot[u] >= inf {
				continue
			}
			for _, ai := range adj[off[u]:off[u+1]] {
				a := g.arcs[ai]
				if a.cap <= 0 {
					continue
				}
				if nd := pot[u] + int64(a.cost); nd < pot[int(a.to)] {
					pot[int(a.to)] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	for i := range pot {
		if pot[i] >= inf {
			pot[i] = 0 // unreachable: potential irrelevant
		}
	}
}

// nodeItem is one frontier entry: a node and its tentative distance.
type nodeItem struct {
	node int32
	d    int64
}

// hpush appends it and sifts up, mirroring container/heap's up().
func (s *Solver) hpush(it nodeItem) {
	h := append(s.heap, it)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(h[j].d < h[i].d) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	s.heap = h
}

// hpop removes and returns the minimum, mirroring container/heap's Pop()
// (swap root with last, sift down over the shortened slice).
func (s *Solver) hpop() nodeItem {
	h := s.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].d < h[j1].d {
			j = j2
		}
		if !(h[j].d < h[i].d) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	it := h[n]
	s.heap = h[:n]
	return it
}

// DecomposeUnitPaths decomposes the current flow from s to t into unit-flow
// paths (each a node sequence s..t). It consumes a copy of the flow, leaving
// the graph state untouched. Cycles in the flow (possible in principle, not
// produced by successive shortest paths with nonnegative costs) are dropped.
// As MinCostFlow carries no flow from a node to itself, s == t yields none.
func (g *Graph) DecomposeUnitPaths(s, t int) [][]int {
	if s == t {
		return nil
	}
	off, adj := g.adjacency()
	residFlow := make([]int32, len(g.arcs))
	for i := 0; i < len(g.arcs); i += 2 {
		residFlow[i] = g.arcs[i^1].cap // flow on forward arc i
	}
	// seen[v] == stamp marks v as already on the current path; the stamp
	// advances per path, so the array is never cleared.
	seen := make([]int32, g.n)
	var paths [][]int
	for stamp := int32(1); ; stamp++ {
		// Walk from s following arcs with positive flow.
		path := []int{s}
		arcsUsed := []int{}
		u := s
		seen[s] = stamp
		found := true
		for u != t {
			next := -1
			for _, ai := range adj[off[u]:off[u+1]] {
				if ai&1 == 1 { // backward arc
					continue
				}
				if residFlow[ai] > 0 && seen[g.arcs[ai].to] != stamp {
					next = int(ai)
					break
				}
			}
			if next == -1 {
				found = false
				break
			}
			u = int(g.arcs[next].to)
			seen[u] = stamp
			path = append(path, u)
			arcsUsed = append(arcsUsed, next)
		}
		if !found {
			break
		}
		for _, ai := range arcsUsed {
			residFlow[ai]--
		}
		paths = append(paths, path)
	}
	return paths
}
