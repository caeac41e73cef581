package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/pacor"
	"repro/internal/valve"
)

// workload is one fixed routing input, routed with pacor.DefaultParams
// and, where workers is set, that many Params.Workers.
type workload struct {
	name string
	// edit selects the edit-session request list (designcache.Router);
	// otherwise a pass is one cold pacor.Route of the design.
	edit bool
	// procs is the run's GOMAXPROCS. pacor.Route fans DME candidate
	// construction out to goroutines even at Workers=1, so a budget above
	// one CPU turns scheduler waits into routing latency: at GOMAXPROCS=2,
	// S5 run medians read 179-284 ms while their CPU medians stayed at
	// 173-185 ms. Only xl300, which runs the parallel scheduler, gets two.
	procs   int
	workers int
	// setups is how many times a run repeats set-up to report the fastest.
	setups int
	design func() (*valve.Design, error)
}

// params are the routing parameters of every request of w.
func (w workload) params() pacor.Params {
	p := pacor.DefaultParams()
	if w.workers != 0 {
		p.Workers = w.workers
	}
	return p
}

// xlSeed is the generator seed of the xl300 design. bench.XLSpec's own seed
// routes to 100% completion, which leaves completion nothing to move; this
// one leaves 5 of 216 valves unrouted.
const xlSeed = 2

func xlDesign() (*valve.Design, error) {
	s := bench.XLSpec(300, 216, 0.02)
	s.Seed = xlSeed
	return bench.GenerateSpec(s)
}

func table1(name string) func() (*valve.Design, error) {
	return func() (*valve.Design, error) { return bench.Generate(name) }
}

// workloads are every workload the binary runs. BENCHMARK.json gates
// chip2, edit and xl300; s5 is the cold route that opens every edit
// session, and runs here for the self-test's layer split (README.md).
var workloads = []workload{
	{name: "s5", procs: 1, setups: 9, design: table1("S5")},
	{name: "chip2", procs: 1, setups: 9, design: table1("Chip2")},
	{name: "edit", edit: true, procs: 1, setups: 5, design: table1("S5")},
	{name: "xl300", procs: 2, workers: 2, setups: 5, design: xlDesign},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// load generates the design and sends it through a JSON round trip, the
// way a design reaches the router from a file; valve.Read validates it.
func (w workload) load() (*valve.Design, error) {
	d, err := w.design()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		return nil, fmt.Errorf("write %s: %w", d.Name, err)
	}
	rd, err := valve.Read(&buf)
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", d.Name, err)
	}
	return rd, nil
}

// Edit sessions: one cold parent route, then editsPerSession chained
// single-valve unit nudges, with an undo after every undoEvery-th edit that
// resubmits the design two steps back (an exact cache hit).
//
// The timed session is always the one drawn from editSessionSeed. A unit
// nudge can change the cost of every later design in the chain: on S5 one
// nudge cut the cold route of its design and all its successors from about
// 160 ms to about 70 ms, so 16-edit sessions drawn from different seeds took
// 1.1 to 2.0 s. The run's --seed draws a second session that is only
// checked against cold routes, never timed. Eight edits keep a session
// short enough for a run to time about twenty of them.
const (
	editsPerSession = 8
	undoEvery       = 4
	editSessionSeed = 1
)

// nudge is one valid single-valve unit move.
type nudge struct{ valve, dx, dy int }

var unitMoves = [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}

// validNudges lists the unit nudges bench.Nudge accepts on d.
func validNudges(d *valve.Design) []nudge {
	var out []nudge
	for v := range d.Valves {
		for _, m := range unitMoves {
			if _, err := bench.Nudge(d, v, m[0], m[1]); err == nil {
				out = append(out, nudge{v, m[0], m[1]})
			}
		}
	}
	return out
}

// editSession returns the request list of one session drawn from seed:
// the parent, then each edit a uniform draw among the current design's
// valid unit nudges, with the undos in place.
func editSession(d0 *valve.Design, seed int64) ([]*valve.Design, error) {
	rng := rand.New(rand.NewSource(seed))
	reqs := []*valve.Design{d0}
	cur := d0
	for i := 0; i < editsPerSession; i++ {
		moves := validNudges(cur)
		if len(moves) == 0 {
			return nil, fmt.Errorf("%s admits no unit nudge", cur.Name)
		}
		n := moves[rng.Intn(len(moves))]
		next, err := bench.Nudge(cur, n.valve, n.dx, n.dy)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, next)
		cur = next
		if (i+1)%undoEvery == 0 {
			cur = reqs[len(reqs)-3]
			reqs = append(reqs, cur)
		}
	}
	return reqs, nil
}
