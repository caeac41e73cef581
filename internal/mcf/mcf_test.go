package mcf

import (
	"math/rand"
	"testing"
)

func TestSingleArc(t *testing.T) {
	g := NewGraph(2)
	a := g.AddArc(0, 1, 3, 5)
	flow, cost := g.MinCostFlow(0, 1, -1)
	if flow != 3 || cost != 15 {
		t.Fatalf("flow=%d cost=%d, want 3/15", flow, cost)
	}
	if g.Flow(a) != 3 {
		t.Errorf("arc flow = %d", g.Flow(a))
	}
}

func TestChoosesCheaperPath(t *testing.T) {
	// Two parallel 0->1 paths via 2 (cost 1+1) and 3 (cost 5+5), cap 1 each.
	g := NewGraph(4)
	g.AddArc(0, 2, 1, 1)
	g.AddArc(2, 1, 1, 1)
	g.AddArc(0, 3, 1, 5)
	g.AddArc(3, 1, 1, 5)
	flow, cost := g.MinCostFlow(0, 1, 1)
	if flow != 1 || cost != 2 {
		t.Fatalf("flow=%d cost=%d, want 1/2", flow, cost)
	}
	// Second unit must take the expensive path.
	g2 := NewGraph(4)
	g2.AddArc(0, 2, 1, 1)
	g2.AddArc(2, 1, 1, 1)
	g2.AddArc(0, 3, 1, 5)
	g2.AddArc(3, 1, 1, 5)
	flow, cost = g2.MinCostFlow(0, 1, -1)
	if flow != 2 || cost != 12 {
		t.Fatalf("flow=%d cost=%d, want 2/12", flow, cost)
	}
}

func TestResidualRerouting(t *testing.T) {
	// Classic instance where the second augmentation must push back over the
	// first path's arc: diamond with cross edge.
	//   0->1 (cap1,cost1), 0->2 (cap1,cost2), 1->2 (cap1,cost0),
	//   1->3 (cap1,cost2), 2->3 (cap1,cost1)
	g := NewGraph(4)
	g.AddArc(0, 1, 1, 1)
	g.AddArc(0, 2, 1, 2)
	g.AddArc(1, 2, 1, 0)
	g.AddArc(1, 3, 1, 2)
	g.AddArc(2, 3, 1, 1)
	flow, cost := g.MinCostFlow(0, 3, -1)
	if flow != 2 {
		t.Fatalf("flow = %d, want 2", flow)
	}
	// Optimal: 0-1-2-3 (cost 2) + 0-2? cap used... best total is 6:
	// 0-1-3 (3) + 0-2-3 (3) = 6, vs 0-1-2-3 (2) + 0-2?cap conflict.
	if cost != 6 {
		t.Fatalf("cost = %d, want 6", cost)
	}
}

func TestMaxFlowLimited(t *testing.T) {
	g := NewGraph(3)
	g.AddArc(0, 1, 10, 1)
	g.AddArc(1, 2, 10, 1)
	flow, cost := g.MinCostFlow(0, 2, 4)
	if flow != 4 || cost != 8 {
		t.Fatalf("flow=%d cost=%d, want 4/8", flow, cost)
	}
}

func TestDisconnected(t *testing.T) {
	g := NewGraph(3)
	g.AddArc(0, 1, 1, 1)
	flow, cost := g.MinCostFlow(0, 2, -1)
	if flow != 0 || cost != 0 {
		t.Fatalf("flow=%d cost=%d, want 0/0", flow, cost)
	}
}

func TestSelfSourceSink(t *testing.T) {
	g := NewGraph(2)
	g.AddArc(0, 1, 1, 1)
	flow, cost := g.MinCostFlow(0, 0, -1)
	if flow != 0 || cost != 0 {
		t.Fatal("s==t must be 0 flow")
	}
	// The decomposition walk starts at t when s == t; it must not emit the
	// one-node path [s] forever.
	if paths := g.DecomposeUnitPaths(0, 0); len(paths) != 0 {
		t.Fatalf("s==t decomposed into %v, want no paths", paths)
	}
}

func TestNegativeCosts(t *testing.T) {
	// A negative-cost arc must still yield the right optimum via
	// Bellman-Ford potentials.
	g := NewGraph(3)
	g.AddArc(0, 1, 1, -3)
	g.AddArc(1, 2, 1, 1)
	g.AddArc(0, 2, 1, 5)
	flow, cost := g.MinCostFlow(0, 2, 1)
	if flow != 1 || cost != -2 {
		t.Fatalf("flow=%d cost=%d, want 1/-2", flow, cost)
	}
}

func TestAddNode(t *testing.T) {
	g := NewGraph(1)
	a := g.AddNode()
	b := g.AddNode()
	if a != 1 || b != 2 || g.N() != 3 {
		t.Fatalf("AddNode ids %d %d n=%d", a, b, g.N())
	}
	g.AddArc(0, b, 2, 1)
	flow, _ := g.MinCostFlow(0, b, -1)
	if flow != 2 {
		t.Errorf("flow = %d", flow)
	}
}

func TestDecomposeUnitPaths(t *testing.T) {
	g := NewGraph(5)
	g.AddArc(0, 1, 1, 1)
	g.AddArc(1, 4, 1, 1)
	g.AddArc(0, 2, 1, 1)
	g.AddArc(2, 3, 1, 1)
	g.AddArc(3, 4, 1, 1)
	flow, _ := g.MinCostFlow(0, 4, -1)
	if flow != 2 {
		t.Fatalf("flow = %d", flow)
	}
	paths := g.DecomposeUnitPaths(0, 4)
	if len(paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(paths))
	}
	for _, p := range paths {
		if p[0] != 0 || p[len(p)-1] != 4 {
			t.Errorf("bad path %v", p)
		}
	}
	// Graph state unchanged: decompose again gives the same answer.
	if again := g.DecomposeUnitPaths(0, 4); len(again) != 2 {
		t.Error("DecomposeUnitPaths mutated graph state")
	}
}

// TestFlowConservationRandom checks, on random graphs, that the resulting
// flow conserves at every interior node, respects capacities, and that the
// reported cost equals the sum over arcs of flow*cost.
func TestFlowConservationRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		n := 6 + rng.Intn(10)
		g := NewGraph(n)
		type arcRec struct{ id, from, to, cap, cost int }
		var recs []arcRec
		nArcs := n * 2
		for i := 0; i < nArcs; i++ {
			from, to := rng.Intn(n), rng.Intn(n)
			if from == to {
				continue
			}
			c := 1 + rng.Intn(4)
			w := rng.Intn(9)
			id := g.AddArc(from, to, c, w)
			recs = append(recs, arcRec{id, from, to, c, w})
		}
		flow, cost := g.MinCostFlow(0, n-1, -1)
		net := make([]int, n)
		sumCost := 0
		for _, r := range recs {
			f := g.Flow(r.id)
			if f < 0 || f > r.cap {
				t.Fatalf("trial %d: arc flow %d outside [0,%d]", trial, f, r.cap)
			}
			net[r.from] -= f
			net[r.to] += f
			sumCost += f * r.cost
		}
		for v := 1; v < n-1; v++ {
			if net[v] != 0 {
				t.Fatalf("trial %d: conservation violated at %d (net %d)", trial, v, net[v])
			}
		}
		if net[n-1] != flow || net[0] != -flow {
			t.Fatalf("trial %d: source/sink imbalance", trial)
		}
		if sumCost != cost {
			t.Fatalf("trial %d: cost %d != sum %d", trial, cost, sumCost)
		}
	}
}

func TestPanics(t *testing.T) {
	assertPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	assertPanic("zero nodes", func() { NewGraph(0) })
	assertPanic("bad arc", func() { NewGraph(2).AddArc(0, 5, 1, 1) })
	assertPanic("neg cap", func() { NewGraph(2).AddArc(0, 1, -1, 1) })
}
