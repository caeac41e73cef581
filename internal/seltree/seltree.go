// Package seltree implements candidate Steiner tree selection (Section 4.2):
// each length-matching cluster contributes a set of candidate DME trees; one
// tree per cluster is chosen to jointly minimize estimated length mismatch
// (Equations 1-2) and pairwise routing overlap between clusters (Equations
// 3-4), via the maximum weight clique formulation solved by internal/mwcp.
package seltree

import (
	"fmt"

	"repro/internal/dme"
	"repro/internal/geom"
	"repro/internal/mwcp"
)

// Solver selects which MWCP algorithm performs the selection. The paper
// implemented all three and adopted the ILP; the flow defaults to the exact
// branch and bound, which returns the same picks at a fraction of the time,
// and keeps SolverILP as the paper-faithful ablation.
type Solver int

// Available solvers.
const (
	SolverILP Solver = iota
	SolverExact
	SolverLocal
)

// Config tunes the selection stage.
type Config struct {
	// Lambda weighs mismatch cost against overlap cost (Eq. 2-3); the paper
	// uses 0.1, prioritizing routability over mismatch.
	Lambda float64
	Solver Solver
	// LocalFallbackSize: above this many total candidates the exact/ILP
	// solvers give way to local search (the ILP grows quadratically in
	// candidate pairs).
	LocalFallbackSize int
}

// exactBudget caps the exact solver's branch-and-bound nodes; a variable
// only so tests can force the fallback on a small instance.
var exactBudget = mwcp.ExactNodeBudget

// DefaultConfig mirrors the paper's parameters, with the exact solver.
func DefaultConfig() Config {
	return Config{Lambda: 0.1, Solver: SolverExact, LocalFallbackSize: 96}
}

// Select picks one candidate per cluster. cands[i] lists cluster i's
// candidate trees; every cluster must have at least one. It returns the
// selected index into each cands[i].
func Select(cands [][]*dme.Tree, cfg Config) ([]int, error) {
	for i, c := range cands {
		if len(c) == 0 {
			return nil, fmt.Errorf("seltree: cluster %d has no candidates", i)
		}
	}
	if len(cands) == 0 {
		return nil, nil
	}
	sel := buildSelection(cands, cfg.Lambda)

	solver := cfg.Solver
	if len(sel.NodeW) > cfg.LocalFallbackSize && solver != SolverLocal {
		solver = SolverLocal
	}
	var pick []int
	var err error
	switch solver {
	case SolverILP:
		pick, _, err = mwcp.SolveILP(sel)
		if err != nil {
			// Oversized or numerically hard ILPs degrade to local search, as
			// a production flow must not fail the whole route on a selection
			// sub-problem.
			pick, _, err = mwcp.SolveLocal(sel)
		}
	case SolverExact:
		pick, _, err = mwcp.SolveExactBudget(sel, exactBudget)
		if err != nil {
			// A search that outgrows its node budget settles for local
			// search, like an ILP failure above.
			pick, _, err = mwcp.SolveLocal(sel)
		}
	default:
		pick, _, err = mwcp.SolveLocal(sel)
	}
	if err != nil {
		return nil, err
	}
	// Convert flat candidate ids back to per-cluster indices.
	out := make([]int, len(cands))
	base := 0
	for i, c := range cands {
		out[i] = pick[i] - base
		base += len(c)
	}
	return out, nil
}

// buildSelection assembles the MWCP instance: node weights Cm (Eq. 2) and
// pairwise overlap weights Co (Eq. 3-4).
func buildSelection(cands [][]*dme.Tree, lambda float64) *mwcp.Selection {
	var groups [][]int
	var flat []*dme.Tree
	var clusterOf []int
	for ci, c := range cands {
		var g []int
		for _, t := range c {
			g = append(g, len(flat))
			flat = append(flat, t)
			clusterOf = append(clusterOf, ci)
		}
		groups = append(groups, g)
	}
	n := len(flat)

	// Eq. 2: Cm_j = -lambda * ΔL_j / max ΔL.
	maxDL := 0
	dls := make([]int, n)
	for i, t := range flat {
		dls[i] = t.DeltaL()
		if dls[i] > maxDL {
			maxDL = dls[i]
		}
	}
	nodeW := make([]float64, n)
	for i := range nodeW {
		if maxDL > 0 {
			nodeW[i] = -lambda * float64(dls[i]) / float64(maxDL)
		}
	}

	// Eq. 3-4: Co_{i,j} = -(1-lambda) * sum over edge-bbox pairs of the
	// overlap ratio. Precompute per-candidate edge boxes.
	boxes := make([][]geom.Rect, n)
	for i, t := range flat {
		boxes[i] = t.EdgeBBoxes()
	}
	pairW := make([][]float64, n)
	for i := range pairW {
		pairW[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if clusterOf[i] == clusterOf[j] {
				continue
			}
			sum := 0.0
			for _, bi := range boxes[i] {
				for _, bj := range boxes[j] {
					sum += geom.OverlapRatio(bi, bj)
				}
			}
			w := -(1 - lambda) * sum
			pairW[i][j], pairW[j][i] = w, w
		}
	}
	return &mwcp.Selection{Groups: groups, NodeW: nodeW, PairW: pairW}
}
