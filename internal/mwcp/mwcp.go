// Package mwcp solves the maximum-weight clique problems that arise when
// selecting one candidate Steiner tree per cluster (Section 4.2 of the
// paper). Candidates of the same cluster are pairwise non-adjacent, so the
// underlying graph is complete multipartite and a clique contains at most
// one candidate per cluster; the paper further requires every cluster to be
// covered, which turns the problem into "pick exactly one node per group,
// maximizing node weights plus induced edge weights".
//
// Mirroring the paper, three solvers are provided: an exact graph-based
// branch-and-bound (SolveExact), an ILP-based method on top of internal/ilp
// (SolveILP — the variant the paper adopted), and an unconstrained-
// quadratic-programming-style local search (SolveLocal). A generic
// maximum-weight-clique routine (MaxWeightClique) is exposed for the
// clustering formulation and for cross-validation in tests.
package mwcp

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/ilp"
	"repro/internal/lp"
)

// Selection is a grouped quadratic selection problem: pick exactly one
// candidate from each group to maximize
//
//	sum_i NodeW[pick_i] + sum_{i<j} PairW[pick_i][pick_j].
//
// NodeW is indexed by candidate; PairW must be symmetric with a zero
// diagonal, and entries between candidates of the same group are ignored.
type Selection struct {
	Groups [][]int
	NodeW  []float64
	PairW  [][]float64
}

// Validate checks structural consistency.
func (s *Selection) Validate() error {
	n := len(s.NodeW)
	if len(s.PairW) != n {
		return fmt.Errorf("mwcp: PairW has %d rows, want %d", len(s.PairW), n)
	}
	for i, row := range s.PairW {
		if len(row) != n {
			return fmt.Errorf("mwcp: PairW row %d has %d cols, want %d", i, len(row), n)
		}
	}
	seen := make([]bool, n)
	for gi, g := range s.Groups {
		if len(g) == 0 {
			return fmt.Errorf("mwcp: group %d is empty", gi)
		}
		for _, c := range g {
			if c < 0 || c >= n {
				return fmt.Errorf("mwcp: group %d references candidate %d (n=%d)", gi, c, n)
			}
			if seen[c] {
				return fmt.Errorf("mwcp: candidate %d in multiple groups", c)
			}
			seen[c] = true
		}
	}
	return nil
}

// Value computes the objective of a complete pick (one candidate index per
// group).
func (s *Selection) Value(pick []int) float64 {
	v := 0.0
	for i, c := range pick {
		v += s.NodeW[c]
		for _, d := range pick[i+1:] {
			v += s.PairW[c][d]
		}
	}
	return v
}

// ExactNodeBudget is the number of branch-and-bound nodes SolveExact may
// visit before it gives up with ErrNodeBudget. A node costs well under a
// microsecond at seltree's 96-candidate local-search threshold, so the
// budget caps a solve at a fraction of a second on any instance there; a
// fully dense 16 x 6 instance needs about twice the budget, while every
// Table 1 selection finishes orders of magnitude below it.
const ExactNodeBudget = 1 << 21

// ErrNodeBudget reports that an exact search ran out of its node budget
// before proving an optimum.
var ErrNodeBudget = errors.New("mwcp: exact search exceeded its node budget")

// SolveExact finds the optimal pick by branch and bound over groups, within
// ExactNodeBudget nodes (see SolveExactBudget).
func SolveExact(s *Selection) ([]int, float64, error) {
	return SolveExactBudget(s, ExactNodeBudget)
}

// SolveExactBudget is SolveExact with an explicit budget of branch-and-bound
// nodes; it returns ErrNodeBudget once the search has visited more. The
// count is deterministic: the same instance and budget always succeed or
// fail alike. Groups are ordered smallest-first to tighten early pruning,
// and candidates are tried in group order; the first pick reaching the
// optimum wins ties.
//
// The bound adds, for every unassigned group, the most any of its
// candidates c can contribute: its node weight, its exact pair weights to
// the candidates already picked, and for every unassigned group after its
// own in the search order the best pair weight it could have with that
// group. Counting the pair weights — PACOR's overlap penalties — is what
// makes dense instances tractable: a bound on node weights alone never sees
// them.
func SolveExactBudget(s *Selection, maxNodes int) ([]int, float64, error) {
	if err := s.Validate(); err != nil {
		return nil, 0, err
	}
	order := make([]int, len(s.Groups))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return len(s.Groups[order[a]]) < len(s.Groups[order[b]])
	})

	// reach[depth][c] bounds what candidate c can add once the groups
	// order[:depth] are picked. reach[0] holds c's node weight plus, for
	// every group after c's own in the search order, the best pair weight c
	// could have with it; each level then adds the exact pair weight to the
	// candidate just picked. A pair of unassigned groups is thus counted
	// once, in the earlier group's term, at its most favorable value.
	n := len(s.NodeW)
	reach := make([][]float64, len(order)+1)
	for i := range reach {
		reach[i] = make([]float64, n)
	}
	for k, gi := range order {
		for _, c := range s.Groups[gi] {
			v := s.NodeW[c]
			for _, gj := range order[k+1:] {
				bestPair := math.Inf(-1)
				for _, d := range s.Groups[gj] {
					if w := s.PairW[c][d]; w > bestPair {
						bestPair = w
					}
				}
				v += bestPair
			}
			reach[0][c] = v
		}
	}

	bestVal := math.Inf(-1)
	var bestPick []int
	pick := make([]int, 0, len(s.Groups))
	nodes := 0

	// rec reports false once the node budget is spent.
	var rec func(depth int, acc float64) bool
	rec = func(depth int, acc float64) bool {
		if nodes++; nodes > maxNodes {
			return false
		}
		if depth == len(order) {
			if acc > bestVal {
				bestVal = acc
				bestPick = append([]int(nil), pick...)
			}
			return true
		}
		// Upper bound for remaining groups.
		cur := reach[depth]
		ub := acc
		for _, gi := range order[depth:] {
			best := math.Inf(-1)
			for _, c := range s.Groups[gi] {
				if cur[c] > best {
					best = cur[c]
				}
			}
			ub += best
		}
		if ub <= bestVal+1e-12 {
			return true
		}
		gi := order[depth]
		next := reach[depth+1]
		for _, c := range s.Groups[gi] {
			delta := s.NodeW[c]
			for _, p := range pick {
				delta += s.PairW[c][p]
			}
			row := s.PairW[c]
			for _, gj := range order[depth+1:] {
				for _, d := range s.Groups[gj] {
					next[d] = cur[d] + row[d]
				}
			}
			pick = append(pick, c)
			if !rec(depth+1, acc+delta) {
				return false
			}
			pick = pick[:len(pick)-1]
		}
		return true
	}
	if !rec(0, 0) {
		return nil, 0, ErrNodeBudget
	}
	if bestPick == nil {
		return nil, 0, errors.New("mwcp: no feasible pick (empty groups?)")
	}
	// Re-order bestPick back to group order.
	byGroup := make([]int, len(s.Groups))
	for i, gi := range order {
		byGroup[gi] = bestPick[i]
	}
	return byGroup, bestVal, nil
}

// SolveILP solves the selection with the linearized 0-1 program the paper
// feeds to Gurobi: x_c per candidate with one-per-group equality rows, and a
// product variable y_{cd} per nonzero pair weight, linearized according to
// the weight's sign.
func SolveILP(s *Selection) ([]int, float64, error) {
	if err := s.Validate(); err != nil {
		return nil, 0, err
	}
	n := len(s.NodeW)
	group := make([]int, n)
	for i := range group {
		group[i] = -1
	}
	for gi, g := range s.Groups {
		for _, c := range g {
			group[c] = gi
		}
	}
	type pair struct{ a, b int }
	var pairs []pair
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if group[a] == -1 || group[b] == -1 || group[a] == group[b] {
				continue
			}
			if s.PairW[a][b] != 0 {
				pairs = append(pairs, pair{a, b})
			}
		}
	}
	nv := n + len(pairs)
	c := make([]float64, nv)
	binary := make([]bool, nv)
	upper := make([]float64, nv)
	for i := 0; i < n; i++ {
		c[i] = s.NodeW[i]
		binary[i] = true
		upper[i] = 1
	}
	var cons []lp.Constraint
	for _, g := range s.Groups {
		row := make([]float64, nv)
		for _, cand := range g {
			row[cand] = 1
		}
		cons = append(cons, lp.Constraint{Coef: row, Op: lp.EQ, RHS: 1})
	}
	for pi, pr := range pairs {
		yi := n + pi
		w := s.PairW[pr.a][pr.b]
		c[yi] = w
		upper[yi] = 1
		if w < 0 {
			// Maximization pushes y down; force y >= xa + xb - 1.
			row := make([]float64, nv)
			row[pr.a], row[pr.b], row[yi] = 1, 1, -1
			cons = append(cons, lp.Constraint{Coef: row, Op: lp.LE, RHS: 1})
		} else {
			// Maximization pushes y up; force y <= xa and y <= xb.
			ra := make([]float64, nv)
			ra[yi], ra[pr.a] = 1, -1
			cons = append(cons, lp.Constraint{Coef: ra, Op: lp.LE, RHS: 0})
			rb := make([]float64, nv)
			rb[yi], rb[pr.b] = 1, -1
			cons = append(cons, lp.Constraint{Coef: rb, Op: lp.LE, RHS: 0})
		}
	}
	// Warm-start the branch and bound with the local-search solution: its
	// objective usually prunes most of the tree immediately.
	var warm []float64
	if lpick, _, lerr := SolveLocal(s); lerr == nil {
		warm = make([]float64, nv)
		for _, cand := range lpick {
			warm[cand] = 1
		}
		for pi, pr := range pairs {
			if warm[pr.a] > 0.5 && warm[pr.b] > 0.5 {
				warm[n+pi] = 1
			} else if s.PairW[pr.a][pr.b] < 0 {
				warm[n+pi] = 0
			}
		}
	}
	sol, err := ilp.Solve(&ilp.Problem{C: c, Constraints: cons, Binary: binary, Upper: upper, Warm: warm})
	if err != nil {
		return nil, 0, err
	}
	if sol.Status != lp.Optimal {
		return nil, 0, fmt.Errorf("mwcp: ILP status %v", sol.Status)
	}
	pick := make([]int, len(s.Groups))
	for gi, g := range s.Groups {
		pick[gi] = -1
		for _, cand := range g {
			if sol.X[cand] > 0.5 {
				pick[gi] = cand
				break
			}
		}
		if pick[gi] == -1 {
			return nil, 0, fmt.Errorf("mwcp: ILP left group %d unassigned", gi)
		}
	}
	return pick, s.Value(pick), nil
}

// SolveLocal runs a deterministic greedy construction followed by
// steepest-descent single-candidate swaps — the unconstrained quadratic
// programming flavor from the paper's reference [25], adapted to the
// one-per-group constraint by searching over feasible swaps only.
func SolveLocal(s *Selection) ([]int, float64, error) {
	if err := s.Validate(); err != nil {
		return nil, 0, err
	}
	pick := make([]int, len(s.Groups))
	// Greedy: assign groups in size order, choosing the candidate with the
	// best marginal value against already-picked candidates.
	order := make([]int, len(s.Groups))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return len(s.Groups[order[a]]) < len(s.Groups[order[b]])
	})
	done := make([]bool, len(s.Groups))
	for _, gi := range order {
		best, bestVal := -1, math.Inf(-1)
		for _, cand := range s.Groups[gi] {
			v := s.NodeW[cand]
			for gj, p := range pick {
				if done[gj] {
					v += s.PairW[cand][p]
				}
			}
			if v > bestVal {
				best, bestVal = cand, v
			}
		}
		pick[gi] = best
		done[gi] = true
	}
	// Steepest-descent over single-group swaps, escalating to simultaneous
	// two-group swaps when no single swap improves (escapes the shallow
	// local optima that pairwise interaction terms create).
	const maxRounds = 1000
	for round := 0; round < maxRounds; round++ {
		if s.improveSingle(pick) {
			continue
		}
		if !s.improvePair(pick) {
			break
		}
	}
	return pick, s.Value(pick), nil
}

// marginal returns the objective contribution of placing cand in group gi
// against the current pick of all other groups.
func (s *Selection) marginal(pick []int, gi, cand int) float64 {
	v := s.NodeW[cand]
	for gj, p := range pick {
		if gj != gi {
			v += s.PairW[cand][p]
		}
	}
	return v
}

func (s *Selection) improveSingle(pick []int) bool {
	bestGain := 1e-12
	bestGroup, bestCand := -1, -1
	for gi, g := range s.Groups {
		curVal := s.marginal(pick, gi, pick[gi])
		for _, cand := range g {
			if cand == pick[gi] {
				continue
			}
			if gain := s.marginal(pick, gi, cand) - curVal; gain > bestGain {
				bestGain, bestGroup, bestCand = gain, gi, cand
			}
		}
	}
	if bestGroup == -1 {
		return false
	}
	pick[bestGroup] = bestCand
	return true
}

func (s *Selection) improvePair(pick []int) bool {
	base := s.Value(pick)
	for gi := 0; gi < len(s.Groups); gi++ {
		for gj := gi + 1; gj < len(s.Groups); gj++ {
			for _, a := range s.Groups[gi] {
				for _, b := range s.Groups[gj] {
					if a == pick[gi] && b == pick[gj] {
						continue
					}
					oa, ob := pick[gi], pick[gj]
					pick[gi], pick[gj] = a, b
					if s.Value(pick) > base+1e-12 {
						return true
					}
					pick[gi], pick[gj] = oa, ob
				}
			}
		}
	}
	return false
}
