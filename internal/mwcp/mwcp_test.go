package mwcp

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// small fixed instance: 2 groups x 2 candidates.
func fixedSel() *Selection {
	// candidates: 0,1 (group 0), 2,3 (group 1)
	pw := make([][]float64, 4)
	for i := range pw {
		pw[i] = make([]float64, 4)
	}
	set := func(a, b int, w float64) { pw[a][b] = w; pw[b][a] = w }
	set(0, 2, -5)
	set(0, 3, -1)
	set(1, 2, 0)
	set(1, 3, -4)
	return &Selection{
		Groups: [][]int{{0, 1}, {2, 3}},
		NodeW:  []float64{-1, -2, -1, -3},
		PairW:  pw,
	}
}

func TestSolveExactFixed(t *testing.T) {
	s := fixedSel()
	pick, val, err := SolveExact(s)
	if err != nil {
		t.Fatal(err)
	}
	// Enumerate: (0,2): -1-1-5=-7; (0,3): -1-3-1=-5; (1,2): -2-1+0=-3; (1,3): -2-3-4=-9.
	if !approx(val, -3) {
		t.Fatalf("val = %v, want -3 (pick %v)", val, pick)
	}
	if pick[0] != 1 || pick[1] != 2 {
		t.Errorf("pick = %v, want [1 2]", pick)
	}
	if !approx(s.Value(pick), val) {
		t.Error("Value disagrees with returned val")
	}
}

func TestSolveILPFixed(t *testing.T) {
	pick, val, err := SolveILP(fixedSel())
	if err != nil {
		t.Fatal(err)
	}
	if !approx(val, -3) || pick[0] != 1 || pick[1] != 2 {
		t.Fatalf("ILP pick = %v val = %v, want [1 2] at -3", pick, val)
	}
}

func TestSolveLocalFixed(t *testing.T) {
	pick, val, err := SolveLocal(fixedSel())
	if err != nil {
		t.Fatal(err)
	}
	if !approx(val, -3) || pick[0] != 1 || pick[1] != 2 {
		t.Fatalf("local pick = %v val = %v, want [1 2] at -3", pick, val)
	}
}

func TestPositivePairWeights(t *testing.T) {
	pw := make([][]float64, 4)
	for i := range pw {
		pw[i] = make([]float64, 4)
	}
	pw[0][2], pw[2][0] = 3, 3
	s := &Selection{
		Groups: [][]int{{0, 1}, {2, 3}},
		NodeW:  []float64{0, 1, 0, 1},
		PairW:  pw,
	}
	// (0,2): 3; (1,3): 2; (0,3): 1; (1,2): 1. Optimum 3.
	for name, solver := range map[string]func(*Selection) ([]int, float64, error){
		"exact": SolveExact, "ilp": SolveILP, "local": SolveLocal,
	} {
		pick, val, err := solver(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !approx(val, 3) || pick[0] != 0 || pick[1] != 2 {
			t.Errorf("%s: pick %v val %v, want [0 2] at 3", name, pick, val)
		}
	}
}

func TestSolversAgreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		nGroups := 2 + rng.Intn(4)
		var groups [][]int
		id := 0
		for g := 0; g < nGroups; g++ {
			sz := 1 + rng.Intn(3)
			var grp []int
			for k := 0; k < sz; k++ {
				grp = append(grp, id)
				id++
			}
			groups = append(groups, grp)
		}
		n := id
		nodeW := make([]float64, n)
		pw := make([][]float64, n)
		for i := range pw {
			pw[i] = make([]float64, n)
			nodeW[i] = -rng.Float64() * 3
		}
		gOf := make([]int, n)
		for gi, g := range groups {
			for _, c := range g {
				gOf[c] = gi
			}
		}
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if gOf[a] != gOf[b] && rng.Float64() < 0.5 {
					w := -rng.Float64() * 2
					pw[a][b], pw[b][a] = w, w
				}
			}
		}
		s := &Selection{Groups: groups, NodeW: nodeW, PairW: pw}
		_, ve, err := SolveExact(s)
		if err != nil {
			t.Fatal(err)
		}
		_, vi, err := SolveILP(s)
		if err != nil {
			t.Fatal(err)
		}
		if !approx(ve, vi) {
			t.Errorf("trial %d: exact %v != ilp %v", trial, ve, vi)
		}
		_, vl, err := SolveLocal(s)
		if err != nil {
			t.Fatal(err)
		}
		if vl > ve+1e-9 {
			t.Errorf("trial %d: local %v beats exact %v", trial, vl, ve)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []*Selection{
		{Groups: [][]int{{0}}, NodeW: []float64{0}, PairW: [][]float64{}},
		{Groups: [][]int{{}}, NodeW: []float64{0}, PairW: [][]float64{{0}}},
		{Groups: [][]int{{5}}, NodeW: []float64{0}, PairW: [][]float64{{0}}},
		{Groups: [][]int{{0}, {0}}, NodeW: []float64{0}, PairW: [][]float64{{0}}},
		{Groups: [][]int{{0}}, NodeW: []float64{0, 0}, PairW: [][]float64{{0}, {0, 0}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestMaxWeightCliqueTriangle(t *testing.T) {
	g := NewCliqueGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	clique, w := MaxWeightClique(g)
	if !approx(w, 3) || len(clique) != 3 {
		t.Fatalf("clique = %v w=%v, want triangle 0-1-2", clique, w)
	}
	if clique[0] != 0 || clique[1] != 1 || clique[2] != 2 {
		t.Errorf("clique = %v", clique)
	}
}

func TestMaxWeightCliqueWeighted(t *testing.T) {
	// A heavy isolated vertex beats a light triangle.
	g := NewCliqueGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	g.W[3] = 10
	clique, w := MaxWeightClique(g)
	if !approx(w, 10) || len(clique) != 1 || clique[0] != 3 {
		t.Fatalf("clique = %v w=%v, want [3] at 10", clique, w)
	}
}

func TestMaxWeightCliqueEmpty(t *testing.T) {
	clique, w := MaxWeightClique(NewCliqueGraph(0))
	if len(clique) != 0 || w != 0 {
		t.Error("empty graph should give empty clique")
	}
}

func TestMaxWeightCliqueVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(8)
		g := NewCliqueGraph(n)
		for i := range g.W {
			g.W[i] = rng.Float64() * 5
		}
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if rng.Float64() < 0.5 {
					g.AddEdge(a, b)
				}
			}
		}
		_, got := MaxWeightClique(g)
		// Brute force.
		best := 0.0
		for mask := 0; mask < 1<<n; mask++ {
			ok := true
			w := 0.0
			for a := 0; a < n && ok; a++ {
				if mask&(1<<a) == 0 {
					continue
				}
				w += g.W[a]
				for b := a + 1; b < n; b++ {
					if mask&(1<<b) != 0 && !g.Adj[a][b] {
						ok = false
						break
					}
				}
			}
			if ok && w > best {
				best = w
			}
		}
		if !approx(got, best) {
			t.Errorf("trial %d: B&B %v, brute force %v", trial, got, best)
		}
	}
}

func TestCliqueSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on self-loop")
		}
	}()
	NewCliqueGraph(2).AddEdge(1, 1)
}

// denseSel is a selection where two candidates of different groups carry a
// negative pair weight with probability density; density 1 is the hardest
// shape for the exact search.
func denseSel(nGroups, perGroup int, density float64, seed int64) *Selection {
	rng := rand.New(rand.NewSource(seed))
	n := nGroups * perGroup
	s := &Selection{NodeW: make([]float64, n), PairW: make([][]float64, n)}
	for i := range s.PairW {
		s.PairW[i] = make([]float64, n)
		s.NodeW[i] = -rng.Float64()
	}
	for g := 0; g < nGroups; g++ {
		var grp []int
		for k := 0; k < perGroup; k++ {
			grp = append(grp, g*perGroup+k)
		}
		s.Groups = append(s.Groups, grp)
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if a/perGroup != b/perGroup && rng.Float64() < density {
				w := -rng.Float64()
				s.PairW[a][b], s.PairW[b][a] = w, w
			}
		}
	}
	return s
}

// solveExactNodeBound is SolveExact as it was before its bound counted pair
// weights to picked candidates: each unassigned group contributes only its
// best node weight. It is kept to pin that the tighter bound prunes more
// without changing which optimum is returned.
func solveExactNodeBound(s *Selection) ([]int, float64) {
	order := make([]int, len(s.Groups))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return len(s.Groups[order[a]]) < len(s.Groups[order[b]])
	})
	optimistic := make([]float64, len(s.Groups))
	for gi, g := range s.Groups {
		best := math.Inf(-1)
		for _, c := range g {
			v := s.NodeW[c]
			for gj, h := range s.Groups {
				if gj == gi {
					continue
				}
				bestPair := 0.0
				for _, d := range h {
					if w := s.PairW[c][d]; w > bestPair {
						bestPair = w
					}
				}
				v += bestPair
			}
			if v > best {
				best = v
			}
		}
		optimistic[gi] = best
	}
	bestVal := math.Inf(-1)
	var bestPick []int
	pick := make([]int, 0, len(s.Groups))
	var rec func(depth int, acc float64)
	rec = func(depth int, acc float64) {
		if depth == len(order) {
			if acc > bestVal {
				bestVal = acc
				bestPick = append([]int(nil), pick...)
			}
			return
		}
		ub := acc
		for _, gi := range order[depth:] {
			ub += optimistic[gi]
		}
		if ub <= bestVal+1e-12 {
			return
		}
		gi := order[depth]
		for _, c := range s.Groups[gi] {
			delta := s.NodeW[c]
			for _, p := range pick {
				delta += s.PairW[c][p]
			}
			pick = append(pick, c)
			rec(depth+1, acc+delta)
			pick = pick[:len(pick)-1]
		}
	}
	rec(0, 0)
	byGroup := make([]int, len(s.Groups))
	for i, gi := range order {
		byGroup[gi] = bestPick[i]
	}
	return byGroup, bestVal
}

// TestExactBoundKeepsPicks: on dense instances small enough for the
// node-weight bound, the pair-aware bound returns the very same pick.
func TestExactBoundKeepsPicks(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		s := denseSel(4+int(seed%6), 2+int(seed%5), 1, seed)
		want, wantVal := solveExactNodeBound(s)
		got, val, err := SolveExact(s)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(got, want) || val != wantVal {
			t.Fatalf("seed %d: pick %v (%v), node-weight bound gave %v (%v)", seed, got, val, want, wantVal)
		}
	}
}

// TestExactDenseAtFallbackSize: a 16 x 6 instance with pair weights on 40%
// of the cross-group pairs — 96 candidates, exactly seltree's
// LocalFallbackSize, and about a second for the node-weight bound — solves
// within an eighth of the node budget, and no local-search pick beats it.
func TestExactDenseAtFallbackSize(t *testing.T) {
	s := denseSel(16, 6, 0.4, 1)
	pick, val, err := SolveExactBudget(s, ExactNodeBudget/8)
	if err != nil {
		t.Fatalf("16x6: %v", err)
	}
	if !approx(s.Value(pick), val) {
		t.Fatalf("16x6: Value %v, reported %v", s.Value(pick), val)
	}
	if _, lv, _ := SolveLocal(s); lv > val+1e-9 {
		t.Fatalf("16x6: local search %v beats exact %v", lv, val)
	}
}

// TestExactNodeBudget: the fully dense 16 x 6 instance needs more nodes
// than ExactNodeBudget, so SolveExact stops with ErrNodeBudget instead of
// running on; a budget fails or succeeds the same way every time.
func TestExactNodeBudget(t *testing.T) {
	if _, _, err := SolveExact(denseSel(16, 6, 1, 7)); !errors.Is(err, ErrNodeBudget) {
		t.Fatalf("dense 16x6: err %v, want ErrNodeBudget", err)
	}
	small := denseSel(8, 4, 1, 3)
	for i := 0; i < 2; i++ {
		if _, _, err := SolveExactBudget(small, 50); !errors.Is(err, ErrNodeBudget) {
			t.Fatalf("budget 50: err %v, want ErrNodeBudget", err)
		}
		if _, _, err := SolveExact(small); err != nil {
			t.Fatalf("default budget: %v", err)
		}
	}
}
