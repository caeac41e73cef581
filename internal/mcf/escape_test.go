package mcf_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/escape"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/mcf"
	"repro/internal/pacor"
)

// TestMatchesReferenceChip2Escape solves the escape network of Table 1's
// Chip2 — the largest flat escape instance the benchmarks route — with the
// production solver and the frozen reference, and requires identical flow
// on every arc and identical unit paths. The instance is rebuilt from a
// routed result: every cluster's internal channels block the grid, and each
// cluster takes off from its valves and channels (or, for a matched LM
// cluster, from the take-off its escape used).
func TestMatchesReferenceChip2Escape(t *testing.T) {
	d, err := bench.Generate("Chip2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := pacor.Route(d, pacor.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	obs := grid.NewObsMap(grid.New(d.W, d.H))
	for _, o := range d.Obstacles {
		obs.Set(o, true)
	}
	for _, v := range d.Valves {
		obs.Set(v.Pos, true)
	}
	var terms []escape.Terminal
	for i := range res.Clusters {
		c := &res.Clusters[i]
		for _, path := range c.Paths {
			obs.SetPath(path, true)
		}
		var cells []geom.Pt
		if c.FullLens != nil && len(c.Escape) > 0 {
			cells = []geom.Pt{c.Escape[0]}
		} else {
			for _, v := range c.Valves {
				cells = append(cells, d.Valves[v].Pos)
			}
			for _, path := range c.Paths {
				cells = append(cells, path...)
			}
		}
		terms = append(terms, escape.Terminal{ClusterID: c.ID, Cells: cells})
	}
	net, s, tt := escape.Network(obs, terms, d.Pins)
	if f := mcf.MatchReference(t, "Chip2 escape", mcf.NewSolver(), net, s, tt, -1); f != len(terms) {
		t.Fatalf("Chip2 escape routed %d of %d clusters", f, len(terms))
	}
}
