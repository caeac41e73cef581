package main

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/dme"
	"repro/internal/escape"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/mstroute"
	"repro/internal/pacor"
	"repro/internal/route"
	"repro/internal/seltree"
	"repro/internal/valve"
)

// Span names of the benchmark's calls into the layers.
const (
	spanRequest    = "request"
	spanFlow       = "pacor.Route"
	spanCache      = "designcache.Route"
	spanCluster    = "cluster.Partition"
	spanDME        = "dme.Candidates"
	spanSelect     = "seltree.Select"
	spanNegotiate  = "route.Negotiate"
	spanMST        = "mstroute.RouteCluster"
	spanEscape     = "escape.Route"
	spanEscapeHier = "escape.RouteHier"
	spanVerify     = "report.verify"
	spanLoad       = "valve.load"
)

// layerCounts are the deterministic work counts of one replay.
type layerCounts struct {
	lmTrees, candidates, nodes, terminals, unrouted int
}

func (c *layerCounts) add(o layerCounts) {
	c.lmTrees += o.lmTrees
	c.candidates += o.candidates
	c.nodes += o.nodes
	c.terminals += o.terminals
	c.unrouted += o.unrouted
}

// layerTimes are one replay's milliseconds per layer, summed over the
// layer's calls.
type layerTimes struct {
	cluster, dme, seltree, negotiate, mst, escape float64
}

// staticObs marks the design's obstacles and valves, the map every stage of
// the flow starts from.
func staticObs(d *valve.Design) *grid.ObsMap {
	obs := grid.NewObsMap(grid.New(d.W, d.H))
	for _, o := range d.Obstacles {
		obs.Set(o, true)
	}
	for _, v := range d.Valves {
		obs.Set(v.Pos, true)
	}
	return obs
}

func positions(d *valve.Design, valves []int) []geom.Pt {
	pts := make([]geom.Pt, len(valves))
	for i, v := range valves {
		pts[i] = d.Valves[v].Pos
	}
	return pts
}

// replayLayers calls each layer's public entry point in flow order on the
// design, recording one span per stage under parent, and returns the work
// counts and the time spent in each layer. The inputs of each call are rebuilt from public outputs only:
// the partition, the candidate lists, the selection, the negotiated paths,
// and for escape the final instance rebuilt from res (every cluster's
// internal channels in place, one terminal per cluster). The replay skips
// the flow's private repair steps (node-collision resolution, rescue,
// refinement, rip-up), so each span is the cost of one clean call into its
// layer, not a share of the flow's own run.
func replayLayers(rec *recorder, req, parent int, d *valve.Design, p pacor.Params, res *pacor.Result) (layerCounts, layerTimes, error) {
	var n layerCounts
	var lt layerTimes
	obs := staticObs(d)

	t := rec.begin(spanCluster, req, parent)
	part := cluster.Partition(d)
	lt.cluster = t.stop()

	var trees, pairs, ords []cluster.Cluster
	for _, c := range part.Clusters {
		switch {
		case c.LM && len(c.Valves) >= 3:
			trees = append(trees, c)
		case c.LM && len(c.Valves) == 2:
			pairs = append(pairs, c)
		default:
			ords = append(ords, c)
		}
	}
	n.lmTrees = len(trees)

	// One span per stage, present even when the stage has nothing to do:
	// chip2 has no tree cluster, so its DME and selection stages measure
	// next to nothing rather than reading a constant zero.
	t = rec.begin(spanDME, req, parent)
	var cands [][]*dme.Tree
	kept := trees[:0:0]
	for _, c := range trees {
		cs := dme.Candidates(obs, positions(d, c.Valves), p.MaxCandidates)
		n.candidates += len(cs)
		if len(cs) == 0 {
			ords = append(ords, c)
			continue
		}
		kept = append(kept, c)
		cands = append(cands, cs)
	}
	trees = kept
	lt.dme = t.stop()

	cfg := seltree.DefaultConfig()
	cfg.Lambda = p.Lambda
	cfg.Solver = p.Solver
	for _, cs := range cands {
		n.nodes += len(cs)
	}
	t = rec.begin(spanSelect, req, parent)
	picks, err := seltree.Select(cands, cfg)
	lt.seltree = t.stop()
	if err != nil {
		return n, lt, fmt.Errorf("seltree.Select: %w", err)
	}

	// Negotiation over the selected trees' edges and the pairs, with the
	// same edge numbering and parameter defaults as the flow.
	const edgeStride = 1 << 12
	var edges []route.Edge
	for i, c := range trees {
		for ei, e := range cands[i][picks[i]].Edges() {
			edges = append(edges, route.Edge{ID: c.ID*edgeStride + ei, Sources: []geom.Pt{e.From}, Targets: []geom.Pt{e.To}})
		}
	}
	for _, c := range pairs {
		pts := positions(d, c.Valves)
		edges = append(edges, route.Edge{ID: c.ID * edgeStride, Sources: pts[:1], Targets: pts[1:2]})
	}
	t = rec.begin(spanNegotiate, req, parent)
	// ok=false is no failure: without the flow's collision repair a clean
	// call can leave edges unrouted (edit and xl300 do), and the paths it
	// found still feed the stages below.
	paths, _ := route.Negotiate(obs, edges, negotiateParams(p))
	lt.negotiate = t.stop()
	for _, e := range edges {
		if path, ok := paths[e.ID]; ok {
			obs.SetPath(path, true)
		}
	}

	// MST routing of the ordinary multi-valve clusters, largest first.
	t = rec.begin(spanMST, req, parent)
	sort.SliceStable(ords, func(i, j int) bool { return len(ords[i].Valves) > len(ords[j].Valves) })
	for _, c := range ords {
		if len(c.Valves) >= 2 {
			mstroute.RouteCluster(obs, positions(d, c.Valves), nil)
		}
	}
	lt.mst = t.stop()

	// Escape on the final instance: internal channels blocked, LM clusters
	// that kept their net take off where the flow's escape did, every
	// other cluster anywhere on its valves and channels.
	eobs := staticObs(d)
	var terms []escape.Terminal
	for i := range res.Clusters {
		c := &res.Clusters[i]
		for _, path := range c.Paths {
			eobs.SetPath(path, true)
		}
		cells := positions(d, c.Valves)
		if c.FullLens != nil && len(c.Escape) > 0 {
			cells = []geom.Pt{c.Escape[0]}
		} else {
			for _, path := range c.Paths {
				cells = append(cells, path...)
			}
		}
		terms = append(terms, escape.Terminal{ClusterID: c.ID, Cells: cells})
	}
	n.terminals = len(terms)
	var er *escape.Result
	if p.Hier.On(eobs.Grid().Cells()) {
		t = rec.begin(spanEscapeHier, req, parent)
		er, _ = escape.RouteHier(eobs, terms, d.Pins, p.Hier, p.Workers, p.Queue)
	} else {
		t = rec.begin(spanEscape, req, parent)
		er = escape.Route(eobs, terms, d.Pins)
	}
	lt.escape = t.stop()
	n.unrouted = len(er.Unrouted)
	return n, lt, nil
}

// negotiateParams resolves the negotiation parameters the way pacor.Route
// does: unset fields inherit the flow's workers, queue and hierarchy.
func negotiateParams(p pacor.Params) route.NegotiateParams {
	np := p.Negotiate
	if np.Workers == 0 {
		np.Workers = p.Workers
	}
	if np.Queue == route.QueueAuto {
		np.Queue = p.Queue
	}
	if np.Hier == (route.HierParams{}) {
		np.Hier = p.Hier
	}
	return np
}
