package mcf

// A frozen copy of the solver as it stood before the CSR/touched-list
// rework: per-node adjacency slices, an O(n) dist/inqArc reset per Dijkstra
// pass and a full potential sweep per augmentation. The production solver
// must reproduce its settle order exactly, so every test here compares
// per-arc flow, total cost and the unit-path decomposition against it.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

type refGraph struct {
	n    int
	arcs []arc
	head [][]int32
	orig []int32
}

// newRefGraph copies g's current state (structure, residual capacities,
// costs and as-built capacities) into a reference graph.
func newRefGraph(g *Graph) *refGraph {
	r := &refGraph{n: g.n, head: make([][]int32, g.n)}
	r.arcs = append([]arc(nil), g.arcs...)
	r.orig = append([]int32(nil), g.orig...)
	for i := range r.arcs {
		from := r.arcs[i^1].to
		r.head[from] = append(r.head[from], int32(i))
	}
	return r
}

func (g *refGraph) reset() {
	for i := 0; i < len(g.arcs); i += 2 {
		g.arcs[i].cap = g.orig[i>>1]
		g.arcs[i^1].cap = 0
	}
}

func (g *refGraph) commit() {
	for i := 0; i < len(g.arcs); i += 2 {
		g.arcs[i^1].cap = 0
	}
}

func (g *refGraph) setCost(id, cost int) {
	g.arcs[id].cost = int32(cost)
	g.arcs[id^1].cost = int32(-cost)
}

type refSolver struct {
	pot    []int64
	dist   []int64
	inqArc []int32
	heap   []nodeItem
}

func (s *refSolver) minCostFlow(g *refGraph, src, dst, maxFlow int) (flow, cost int) {
	if src == dst {
		return 0, 0
	}
	if len(s.pot) < g.n {
		s.pot = make([]int64, g.n)
		s.dist = make([]int64, g.n)
		s.inqArc = make([]int32, g.n)
	}
	pot, dist, inqArc := s.pot[:g.n], s.dist[:g.n], s.inqArc[:g.n]
	s.initPotentials(g, src, pot)
	want := int64(inf)
	if maxFlow >= 0 {
		want = int64(maxFlow)
	}
	var totalFlow, totalCost int64
	for totalFlow < want {
		// Dijkstra with reduced costs.
		for i := range dist {
			dist[i] = inf
			inqArc[i] = -1
		}
		dist[src] = 0
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
			for _, ai := range g.head[u] {
				a := g.arcs[ai]
				if a.cap <= 0 {
					continue
				}
				v := int(a.to)
				nd := dist[u] + int64(a.cost) + pot[u] - pot[v]
				if nd < dist[v] {
					dist[v] = nd
					inqArc[v] = ai
					s.hpush(nodeItem{node: int32(v), d: nd})
				}
			}
		}
		if distT >= inf {
			break // t unreachable: done
		}
		// Potential update with early exit: unvisited nodes (and nodes with
		// tentative distance beyond distT) clamp to distT, preserving
		// reduced-cost nonnegativity.
		for i := 0; i < g.n; i++ {
			d := dist[i]
			if d > distT {
				d = distT
			}
			pot[i] += d
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
	}
	return int(totalFlow), int(totalCost)
}

// initPotentials fills pot via Bellman-Ford from src to support negative arc
// costs. With all-nonnegative costs it converges immediately.
func (s *refSolver) initPotentials(g *refGraph, src int, pot []int64) {
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
			for _, ai := range g.head[u] {
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

// hpush appends it and sifts up, mirroring container/heap's up().
func (s *refSolver) hpush(it nodeItem) {
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
func (s *refSolver) hpop() nodeItem {
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
func (g *refGraph) decomposeUnitPaths(s, t int) [][]int {
	residFlow := make([]int32, len(g.arcs))
	for i := 0; i < len(g.arcs); i += 2 {
		residFlow[i] = g.arcs[i^1].cap // flow on forward arc i
	}
	var paths [][]int
	for {
		// Walk from s following arcs with positive flow.
		path := []int{s}
		arcsUsed := []int{}
		u := s
		visited := map[int]bool{s: true}
		found := true
		for u != t {
			next := -1
			for _, ai := range g.head[u] {
				if ai&1 == 1 { // backward arc
					continue
				}
				if residFlow[ai] > 0 && !visited[int(g.arcs[ai].to)] {
					next = int(ai)
					break
				}
			}
			if next == -1 {
				found = false
				break
			}
			u = int(g.arcs[next].to)
			visited[u] = true
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

// sameState fails unless g and r carry identical residual capacities on
// every arc and decompose into identical unit paths.
func sameState(t testing.TB, where string, g *Graph, r *refGraph, s, tt int) {
	t.Helper()
	for i := range g.arcs {
		if g.arcs[i] != r.arcs[i] {
			t.Fatalf("%s: arc %d is %+v, reference %+v", where, i, g.arcs[i], r.arcs[i])
		}
	}
	if got, want := g.DecomposeUnitPaths(s, tt), r.decomposeUnitPaths(s, tt); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: unit paths %v, reference %v", where, got, want)
	}
}

// matchReference solves g from s to t on sv and a frozen-reference copy of
// g, and fails on any difference in flow, cost, per-arc residuals or unit
// paths. It returns the flow.
func matchReference(t testing.TB, where string, sv *Solver, g *Graph, s, tt, maxFlow int) int {
	t.Helper()
	r := newRefGraph(g)
	var rs refSolver
	f, c := sv.MinCostFlow(g, s, tt, maxFlow)
	rf, rc := rs.minCostFlow(r, s, tt, maxFlow)
	if f != rf || c != rc {
		t.Fatalf("%s: flow/cost %d/%d, reference %d/%d", where, f, c, rf, rc)
	}
	sameState(t, where, g, r, s, tt)
	return f
}

// MatchReference exposes matchReference to the external test package, which
// builds real escape networks.
var MatchReference = matchReference

// tieGraph is a random network with unit costs (0 or 1) and small
// capacities, so almost every Dijkstra pass meets equal-distance ties.
func tieGraph(rng *rand.Rand, n, arcs int) *Graph {
	g := NewGraph(n)
	for i := 0; i < arcs; i++ {
		from, to := rng.Intn(n), rng.Intn(n)
		if from != to {
			g.AddArc(from, to, 1+rng.Intn(2), rng.Intn(2))
		}
	}
	return g
}

func TestMatchesReferenceTies(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sv := NewSolver()
	for trial := 0; trial < 200; trial++ {
		n := 4 + rng.Intn(40)
		g := tieGraph(rng, n, n*(2+rng.Intn(4)))
		maxFlow := -1
		if trial%3 == 0 {
			maxFlow = 1 + rng.Intn(3)
		}
		matchReference(t, fmt.Sprintf("trial %d", trial), sv, g, 0, n-1, maxFlow)
	}
}

// TestMatchesReferenceNegative covers the Bellman-Ford start: negative
// arcs out of the source, as escape's take-off penalties could produce.
func TestMatchesReferenceNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sv := NewSolver()
	for trial := 0; trial < 100; trial++ {
		n := 5 + rng.Intn(30)
		g := NewGraph(n)
		for i := 0; i < n*3; i++ {
			// No arc enters the source, so no cycle is negative.
			from, to := rng.Intn(n), 1+rng.Intn(n-1)
			if from != to {
				g.AddArc(from, to, 1+rng.Intn(2), rng.Intn(2))
			}
		}
		for k := 0; k < 3; k++ {
			g.AddArc(0, 1+rng.Intn(n-1), 1+rng.Intn(2), -1-rng.Intn(4))
		}
		matchReference(t, fmt.Sprintf("trial %d", trial), sv, g, 0, n-1, -1)
	}
}

// TestMatchesReferenceArena replays the hierarchical global stage's use of
// one graph: per round Reset and re-price every arc, then per edge a unit
// solve, a decomposition and a Commit, all on one reused Solver.
func TestMatchesReferenceArena(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const side = 6
	n := side * side
	g := NewGraph(n)
	var ids []int
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			u := y*side + x
			if x+1 < side {
				ids = append(ids, g.AddArc(u, u+1, 2, 4), g.AddArc(u+1, u, 2, 4))
			}
			if y+1 < side {
				ids = append(ids, g.AddArc(u, u+side, 2, 4), g.AddArc(u+side, u, 2, 4))
			}
		}
	}
	r := newRefGraph(g)
	sv := NewSolver()
	var rs refSolver
	for round := 0; round < 8; round++ {
		g.Reset()
		r.reset()
		if round > 0 {
			for _, id := range ids {
				c := 4 + rng.Intn(3)
				g.SetCost(id, c)
				r.setCost(id, c)
			}
		}
		for e := 0; e < 12; e++ {
			s, tt := rng.Intn(n), rng.Intn(n-1)
			if tt >= s {
				tt++ // hier.go solves only between distinct tiles
			}
			f, c := sv.MinCostFlow(g, s, tt, 1)
			rf, rc := rs.minCostFlow(r, s, tt, 1)
			where := fmt.Sprintf("round %d edge %d", round, e)
			if f != rf || c != rc {
				t.Fatalf("%s: flow/cost %d/%d, reference %d/%d", where, f, c, rf, rc)
			}
			sameState(t, where, g, r, s, tt)
			g.Commit()
			r.commit()
		}
	}
}
