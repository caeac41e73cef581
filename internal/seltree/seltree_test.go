package seltree

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/dme"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/mwcp"
)

func candsFor(t *testing.T, obs *grid.ObsMap, clusters [][]geom.Pt, maxCand int) [][]*dme.Tree {
	t.Helper()
	var out [][]*dme.Tree
	for _, sinks := range clusters {
		c := dme.Candidates(obs, sinks, maxCand)
		if len(c) == 0 {
			t.Fatalf("no candidates for %v", sinks)
		}
		out = append(out, c)
	}
	return out
}

func TestSelectSingleCluster(t *testing.T) {
	g := grid.New(40, 40)
	obs := grid.NewObsMap(g)
	cands := candsFor(t, obs, [][]geom.Pt{
		{{X: 5, Y: 5}, {X: 17, Y: 11}, {X: 5, Y: 25}, {X: 17, Y: 31}},
	}, 6)
	for _, solver := range []Solver{SolverILP, SolverExact, SolverLocal} {
		cfg := DefaultConfig()
		cfg.Solver = solver
		pick, err := Select(cands, cfg)
		if err != nil {
			t.Fatalf("solver %d: %v", solver, err)
		}
		if len(pick) != 1 || pick[0] < 0 || pick[0] >= len(cands[0]) {
			t.Fatalf("solver %d: pick = %v", solver, pick)
		}
	}
}

func TestSelectAvoidsOverlap(t *testing.T) {
	// Two clusters side by side; candidates overlapping the neighbor's
	// territory must be penalized, so the selected pair should have less
	// overlap cost than the worst pair.
	g := grid.New(60, 40)
	obs := grid.NewObsMap(g)
	cands := candsFor(t, obs, [][]geom.Pt{
		{{X: 5, Y: 5}, {X: 21, Y: 13}, {X: 5, Y: 25}, {X: 21, Y: 33}},
		{{X: 35, Y: 5}, {X: 51, Y: 13}, {X: 35, Y: 25}, {X: 51, Y: 33}},
	}, 6)
	pick, err := Select(cands, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sel := buildSelection(cands, 0.1)
	// Compare the chosen assignment's objective to all single-candidate
	// alternatives; it must be the maximum (the default solver is exact).
	flatPick := []int{pick[0], len(cands[0]) + pick[1]}
	chosen := sel.Value(flatPick)
	for a := 0; a < len(cands[0]); a++ {
		for b := 0; b < len(cands[1]); b++ {
			v := sel.Value([]int{a, len(cands[0]) + b})
			if v > chosen+1e-9 {
				t.Fatalf("selection suboptimal: (%d,%d) has %v > chosen %v", a, b, v, chosen)
			}
		}
	}
}

func TestSelectEmpty(t *testing.T) {
	pick, err := Select(nil, DefaultConfig())
	if err != nil || pick != nil {
		t.Error("empty input should return nil, nil")
	}
}

func TestSelectMissingCandidates(t *testing.T) {
	if _, err := Select([][]*dme.Tree{{}}, DefaultConfig()); err == nil {
		t.Error("cluster with no candidates must error")
	}
}

func TestSelectLocalFallbackOnSize(t *testing.T) {
	g := grid.New(120, 120)
	obs := grid.NewObsMap(g)
	var clusters [][]geom.Pt
	for i := 0; i < 8; i++ {
		bx, by := (i%4)*30+4, (i/4)*60+4
		clusters = append(clusters, []geom.Pt{
			{X: bx, Y: by}, {X: bx + 12, Y: by + 6}, {X: bx, Y: by + 20}, {X: bx + 12, Y: by + 26},
		})
	}
	cands := candsFor(t, obs, clusters, 8)
	cfg := DefaultConfig()
	cfg.LocalFallbackSize = 10 // force the fallback path
	pick, err := Select(cands, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pick) != 8 {
		t.Fatalf("picks = %d", len(pick))
	}
	for i, p := range pick {
		if p < 0 || p >= len(cands[i]) {
			t.Errorf("pick[%d] = %d out of range", i, p)
		}
	}
}

// TestSelectExactBudgetFallback: an exact search that exhausts its node
// budget yields the local-search pick rather than an error, and a budget it
// fits in yields the exact pick.
func TestSelectExactBudgetFallback(t *testing.T) {
	g := grid.New(120, 120)
	obs := grid.NewObsMap(g)
	var clusters [][]geom.Pt
	for i := 0; i < 6; i++ {
		bx, by := (i%3)*36+4, (i/3)*50+4
		clusters = append(clusters, []geom.Pt{
			{X: bx, Y: by}, {X: bx + 14, Y: by + 6}, {X: bx, Y: by + 22}, {X: bx + 14, Y: by + 28},
		})
	}
	cands := candsFor(t, obs, clusters, 6)
	run := func(solver Solver, budget int) []int {
		defer func(b int) { exactBudget = b }(exactBudget)
		exactBudget = budget
		cfg := DefaultConfig()
		cfg.Solver = solver
		pick, err := Select(cands, cfg)
		if err != nil {
			t.Fatalf("solver %d budget %d: %v", solver, budget, err)
		}
		return pick
	}
	sel := buildSelection(cands, DefaultConfig().Lambda)
	flat := func(pick []int) []int {
		out, base := make([]int, len(pick)), 0
		for i, p := range pick {
			out[i] = base + p
			base += len(cands[i])
		}
		return out
	}
	if _, _, err := mwcp.SolveExactBudget(sel, 1); !errors.Is(err, mwcp.ErrNodeBudget) {
		t.Fatalf("budget 1: err %v, want ErrNodeBudget", err)
	}
	if got, want := run(SolverExact, 1), run(SolverLocal, 1); !reflect.DeepEqual(got, want) {
		t.Errorf("exhausted budget picked %v, local search %v", got, want)
	}
	exact, _, err := mwcp.SolveExact(sel)
	if err != nil {
		t.Fatal(err)
	}
	if got := flat(run(SolverExact, mwcp.ExactNodeBudget)); !reflect.DeepEqual(got, exact) {
		t.Errorf("default budget picked %v, exact optimum %v", got, exact)
	}
}

func TestBuildSelectionWeights(t *testing.T) {
	g := grid.New(40, 40)
	obs := grid.NewObsMap(g)
	cands := candsFor(t, obs, [][]geom.Pt{
		{{X: 5, Y: 5}, {X: 17, Y: 11}},
		{{X: 5, Y: 25}, {X: 17, Y: 31}},
	}, 3)
	sel := buildSelection(cands, 0.1)
	if err := sel.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, w := range sel.NodeW {
		if w > 0 || w < -0.1 {
			t.Errorf("NodeW[%d] = %v outside [-lambda, 0]", i, w)
		}
	}
	for i := range sel.PairW {
		for j := range sel.PairW[i] {
			if sel.PairW[i][j] > 0 {
				t.Errorf("PairW[%d][%d] = %v positive", i, j, sel.PairW[i][j])
			}
			if sel.PairW[i][j] != sel.PairW[j][i] {
				t.Errorf("PairW not symmetric at %d,%d", i, j)
			}
		}
	}
}
