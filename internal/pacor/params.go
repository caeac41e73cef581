// Package pacor orchestrates the complete control-layer routing flow of the
// paper (Figure 2): valve clustering, length-matching-aware cluster routing
// (DME candidates -> MWCP selection -> negotiation routing), MST-based
// routing for ordinary clusters, min-cost-flow escape routing to control
// pins with de-clustering retries, and final path detouring for the
// length-matching constraint.
package pacor

import (
	"io"

	"repro/internal/route"
	"repro/internal/seltree"
)

// Mode selects the flow variant, matching the self-comparison columns of
// Table 2.
type Mode int

// Flow variants.
const (
	// ModePACOR is the full flow: candidate selection, escape routing, and
	// final-stage detouring.
	ModePACOR Mode = iota
	// ModeWithoutSelection ("w/o Sel") skips the MWCP candidate-tree
	// selection and takes each cluster's first candidate.
	ModeWithoutSelection
	// ModeDetourFirst detours for length matching immediately after the
	// negotiation-based routing stage, before escape routing.
	ModeDetourFirst
)

func (m Mode) String() string {
	switch m {
	case ModePACOR:
		return "PACOR"
	case ModeWithoutSelection:
		return "w/o Sel"
	case ModeDetourFirst:
		return "Detour First"
	}
	return "unknown"
}

// Params are the flow's tuning knobs; defaults mirror the paper.
type Params struct {
	Mode Mode
	// MaxCandidates bounds candidate Steiner trees per cluster.
	MaxCandidates int
	// Lambda weighs mismatch vs overlap in selection (Eq. 2-3).
	Lambda float64
	// Negotiate holds Algorithm 1's bg/alpha/gamma.
	Negotiate route.NegotiateParams
	// Workers sets the worker-pool size for the flow's parallel routing
	// stages (negotiation rounds, ordinary-cluster MST routing, escape
	// rip-up rerouting). 0 or 1 runs everything sequentially; every value
	// produces byte-identical results (see route.RunScheduled). It also
	// seeds Negotiate.Workers unless that is set explicitly.
	Workers int
	// Queue selects the open-list implementation behind every grid search of
	// the flow (route.QueueMode). Like Workers and the cache knobs it is a
	// pure wall-clock knob — routed output is byte-identical across modes —
	// and it seeds Negotiate.Queue unless that is set explicitly.
	Queue route.QueueMode
	// Hier configures the hierarchical two-stage router (route.HierParams)
	// for both the negotiation searches (exact — output unchanged) and the
	// escape stage (approximate — pin assignment and total length may differ
	// from the flat flow network; Result.EscapeHier reports the stage's
	// work). The zero value is auto: hierarchical only above the cell
	// threshold, so every design at or below 256x256 routes exactly as
	// before. It seeds Negotiate.Hier unless that is set explicitly.
	Hier route.HierParams
	// Solver picks the MWCP solver for candidate tree selection. The default
	// is exact branch and bound (seltree.SolverExact); seltree.SolverILP is
	// the paper's choice, kept as an ablation that routes byte-identically
	// on every Table 1 design (TestSolverParity) at several times the cost.
	Solver seltree.Solver
	// EscapeRetries bounds the de-clustering/rip-up escape rounds.
	EscapeRetries int
	// ExactClustering replaces the greedy max-clique heuristic of the valve
	// clustering stage with exact maximum-clique extraction (slower; for
	// small designs and ablations).
	ExactClustering bool
	// Trace, when non-nil, receives escape-stage diagnostics. Library code
	// never writes to process stdout (the nostdout invariant): callers that
	// want tracing inject the destination here.
	Trace io.Writer
	// NegSeed, when non-nil, warm-starts the flow's main length-matching
	// negotiation from a previous run's captured transcript
	// (route.NegotiationSeed; designcache feeds this on a near-hit). Seeding
	// never changes routed output — see seed.go's cone-disjointness gate —
	// and only the main call consumes it: rescue and refinement negotiate
	// different edge sets against different base maps, where the parent
	// transcript does not apply.
	NegSeed *route.NegotiationSeed
	// NegCapture, when non-nil, receives the main negotiation call's full
	// transcript for use as a later run's NegSeed.
	NegCapture *route.NegotiationSeed
	// LMSeed, when non-nil, warm-starts the candidate-generation and MWCP
	// selection sub-stage from a previous run's capture (see lmseed.go):
	// clusters whose sink sequence matches and whose construction read cone
	// avoids every changed cell replay their candidates, and the selection
	// replays when the whole instance fingerprint matches. Like NegSeed it
	// never changes routed output.
	LMSeed *LMSeed
	// LMCapture, when non-nil, receives this run's candidate/selection
	// capture for use as a later run's LMSeed.
	LMCapture *LMSeed
}

// DefaultParams returns the paper's settings.
func DefaultParams() Params {
	return Params{
		Mode:          ModePACOR,
		MaxCandidates: 6,
		Lambda:        0.1,
		Negotiate:     route.DefaultNegotiateParams(),
		Solver:        seltree.SolverExact,
		EscapeRetries: 6,
	}
}
