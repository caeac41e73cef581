package repro_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/pacor"
	"repro/internal/seltree"
	"repro/internal/valve"
)

// nudgeChain returns the S5 edit chain the perfbench edit workload times
// (session seed 1): eight chained single-valve unit nudges, each a uniform
// draw among the current design's valid nudges, stepping back two designs
// after every fourth edit. Only the distinct designs are returned.
func nudgeChain(t *testing.T, d0 *valve.Design) []*valve.Design {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	chain := []*valve.Design{d0}
	cur := d0
	for i := 0; i < 8; i++ {
		type move struct{ v, dx, dy int }
		var moves []move
		for v := range cur.Valves {
			for _, m := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				if _, err := bench.Nudge(cur, v, m[0], m[1]); err == nil {
					moves = append(moves, move{v, m[0], m[1]})
				}
			}
		}
		if len(moves) == 0 {
			t.Fatalf("%s admits no unit nudge", cur.Name)
		}
		m := moves[rng.Intn(len(moves))]
		next, err := bench.Nudge(cur, m.v, m.dx, m.dy)
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, next)
		cur = next
		if (i+1)%4 == 0 {
			cur = chain[len(chain)-3] // undo: back to two designs ago
		}
	}
	return chain
}

// routeJSON routes d and returns its WriteJSON output with runtime zeroed.
func routeJSON(t *testing.T, d *valve.Design, p pacor.Params) []byte {
	t.Helper()
	res, err := pacor.Route(d, p)
	if err != nil {
		t.Fatalf("%s: %v", d.Name, err)
	}
	res.Runtime = 0
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSolverParity pins the paper-faithful ablation to the default: the
// ILP selection and the exact branch and bound must route every Table 1
// design, in both modes that select, and every design of the S5 nudge
// chain byte for byte alike. CI's golden matrices run only the default
// solver, so this is what keeps SolverILP honest.
func TestSolverParity(t *testing.T) {
	if testing.Short() {
		t.Skip("routes every Table 1 design twice per mode")
	}
	var designs []*valve.Design
	for _, name := range bench.Names() {
		d, err := bench.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		designs = append(designs, d)
	}
	s5, err := bench.Generate("S5")
	if err != nil {
		t.Fatal(err)
	}
	chain := nudgeChain(t, s5)[1:] // the parent is S5, routed above
	for _, mode := range []pacor.Mode{pacor.ModePACOR, pacor.ModeDetourFirst} {
		set := designs
		if mode == pacor.ModePACOR {
			set = append(set[:len(set):len(set)], chain...)
		}
		for i, d := range set {
			p := pacor.DefaultParams()
			p.Mode = mode
			p.Solver = seltree.SolverExact
			exact := routeJSON(t, d, p)
			p.Solver = seltree.SolverILP
			if ilp := routeJSON(t, d, p); !bytes.Equal(exact, ilp) {
				t.Errorf("%v design %d (%s): ILP and exact selection route differently", mode, i, d.Name)
			}
		}
	}
}
