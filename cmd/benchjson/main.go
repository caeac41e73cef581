// Command benchjson measures the repository's performance-trajectory
// benchmarks programmatically (via testing.Benchmark) and emits them as a
// JSON snapshot — the BENCH_PR<n>.json files future PRs regress against.
//
// The measured set mirrors the hot paths this trajectory tracks: steady-state
// A* on a reusable workspace vs a fresh workspace per search (under both the
// binary heap and the Dial bucket open list, plus the bidirectional variant),
// the full PACOR flow per design (sequentially and per worker count of the
// deterministic parallel scheduler), the ChipXL million-cell family, and the
// sequential vs parallel Table 2 sweep. Every row carries the queue mode and
// grid family it ran under so cross-snapshot diffs compare like with like.
//
// Every measurement records the GOMAXPROCS it actually ran under (plus the
// host's CPU count at the snapshot level): a parallel speedup claim is
// meaningless without the processor count behind it, and the two can differ
// per benchmark when the environment changes GOMAXPROCS mid-run. When a
// baseline snapshot is given, measurements sharing a name with a baseline
// entry carry the baseline ns/op and the resulting speedup ratio.
//
// Usage:
//
//	benchjson [-out BENCH_PR8.json] [-pr 8] [-baseline BENCH_PR6.json]
//	          [-designs S1,S3,S5] [-sweep S1,S2,S3,S4,S5]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/designcache"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/pacor"
	"repro/internal/route"
	"repro/internal/valve"
)

// Measurement is one benchmark result in the snapshot.
type Measurement struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	N           int   `json:"n"`
	// GoMaxProcs is the GOMAXPROCS this measurement actually ran under —
	// recorded per benchmark, not assumed from the snapshot header.
	GoMaxProcs int `json:"gomaxprocs,omitempty"`
	// Queue names the open-list mode the measurement ran under (auto, heap,
	// bucket, or bidir); Family names the grid family (S for the paper's
	// Table 1 designs, ChipXL for the million-cell stress family). Both are
	// per-row so a baseline diff never compares across modes or scales.
	// Stage names the routing architecture the row exercises: "flat" for the
	// single-stage path, "global" for the tile-coarsening/corridor stage in
	// isolation, "detailed" for the full two-stage hierarchical path (global
	// corridor assignment plus corridor-masked detailed searches).
	Queue     string  `json:"queue,omitempty"`
	Family    string  `json:"family,omitempty"`
	Stage     string  `json:"stage,omitempty"`
	Note      string  `json:"note,omitempty"`
	SpeedupVs string  `json:"speedup_vs,omitempty"`
	Speedup   float64 `json:"speedup,omitempty"`
	// BaselineNsPerOp / SpeedupVsBaseline compare against the same-named
	// entry of the -baseline snapshot (ratio > 1 means this run is faster).
	BaselineNsPerOp   int64   `json:"baseline_ns_per_op,omitempty"`
	SpeedupVsBaseline float64 `json:"speedup_vs_baseline,omitempty"`
}

// Snapshot is the emitted file layout.
type Snapshot struct {
	PR       int    `json:"pr"`
	Go       string `json:"go"`
	MaxProcs int    `json:"gomaxprocs"`
	// NumCPU is the host's logical CPU count; speedup claims from parallel
	// benchmarks are bounded by it no matter what GOMAXPROCS says.
	NumCPU     int                    `json:"numcpu"`
	Baseline   string                 `json:"baseline,omitempty"`
	Notes      string                 `json:"notes,omitempty"`
	Seed       map[string]Measurement `json:"seed_baseline,omitempty"`
	Benchmarks map[string]Measurement `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "BENCH_PR10.json", "output file")
	pr := flag.Int("pr", 10, "PR number stamped into the snapshot")
	baseline := flag.String("baseline", "BENCH_PR8.json", "prior snapshot to diff against (empty = none)")
	designs := flag.String("designs", "S1,S3,S5", "designs for the full-flow benchmarks")
	sweep := flag.String("sweep", "S1,S2,S3,S4,S5", "designs for the sequential-vs-parallel sweep timing")
	flag.Parse()

	snap := Snapshot{
		PR:       *pr,
		Go:       runtime.Version(),
		MaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:   runtime.NumCPU(),
		// The seed A* (per-call slices + container/heap boxing) no longer
		// exists in the tree; its cost on the exact AStarS5 scenario below,
		// measured at the seed commit on this hardware, is pinned here as
		// the trajectory origin.
		Seed: map[string]Measurement{
			"AStarS5PerCallAlloc": {
				NsPerOp:     4953610,
				AllocsPerOp: 47434,
				BytesPerOp:  1481416,
				N:           20,
				GoMaxProcs:  1,
				Note:        "seed route.AStar before the workspace refactor (four O(W*H) slices + map targets + heap boxing per push)",
			},
		},
		Benchmarks: map[string]Measurement{},
	}

	record := func(name string, r testing.BenchmarkResult, note string) {
		snap.Benchmarks[name] = Measurement{
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			N:           r.N,
			GoMaxProcs:  runtime.GOMAXPROCS(0),
			Note:        note,
		}
		fmt.Printf("%-28s %12d ns/op %10d B/op %8d allocs/op (gomaxprocs %d)\n",
			name, r.NsPerOp(), r.AllocedBytesPerOp(), r.AllocsPerOp(), runtime.GOMAXPROCS(0))
	}
	// tag stamps the queue mode, grid family, and routing stage onto an
	// already-recorded row.
	tag := func(name, queue, family, stage string) {
		m := snap.Benchmarks[name]
		m.Queue, m.Family, m.Stage = queue, family, stage
		snap.Benchmarks[name] = m
	}
	// bestOf reruns a benchmark k times and keeps the fastest run. The flow
	// rows complete only a handful of ops inside testing.Benchmark's budget,
	// and on this single-CPU host a GC pause or scheduler hiccup inside a
	// 1-op run can swing the row by 25% — enough to fabricate a regression.
	bestOf := func(k int, fn func(b *testing.B)) testing.BenchmarkResult {
		best := testing.Benchmark(fn)
		for i := 1; i < k; i++ {
			if r := testing.Benchmark(fn); r.NsPerOp() < best.NsPerOp() {
				best = r
			}
		}
		return best
	}

	g, obs, src, dst := s5SizedSearch()
	req := route.Request{Sources: []geom.Pt{src}, Targets: []geom.Pt{dst}, Obs: obs}

	record("AStarS5Reuse", bestOf(5, func(b *testing.B) {
		ws := route.NewWorkspace(g)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := ws.AStar(g, req); !ok {
				b.Fatal("no path")
			}
		}
	}), "long-lived workspace, generation-stamped arrays")
	tag("AStarS5Reuse", "auto", "S", "flat")

	record("AStarS5ReuseHeap", bestOf(5, func(b *testing.B) {
		ws := route.NewWorkspace(g)
		ws.SetQueueMode(route.QueueHeap)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := ws.AStar(g, req); !ok {
				b.Fatal("no path")
			}
		}
	}), "same scenario with the binary heap forced (bucket-vs-heap delta at S5 scale)")
	tag("AStarS5ReuseHeap", "heap", "S", "flat")

	record("AStarS5Fresh", bestOf(5, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := route.NewWorkspace(g).AStar(g, req); !ok {
				b.Fatal("no path")
			}
		}
	}), "new workspace per search (per-call allocation comparison point)")
	tag("AStarS5Fresh", "auto", "S", "flat")

	for _, name := range strings.Split(*designs, ",") {
		d, err := bench.Generate(name)
		if err != nil {
			fatal(err)
		}
		record("Flow"+name, bestOf(3, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pacor.Route(d, pacor.DefaultParams()); err != nil {
					b.Fatal(err)
				}
			}
		}), "full PACOR flow, default params (incremental negotiation cache on)")
		tag("Flow"+name, "auto", "S", "flat")
		record("Flow"+name+"CacheOff", bestOf(3, func(b *testing.B) {
			params := pacor.DefaultParams()
			params.Negotiate.NoCache = true
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pacor.Route(d, params); err != nil {
					b.Fatal(err)
				}
			}
		}), "full PACOR flow with the incremental negotiation cache disabled (byte-identical output)")
		tag("Flow"+name+"CacheOff", "auto", "S", "flat")
	}

	// The deterministic in-flow parallelism: the full S5 flow per worker
	// count of route.RunScheduled. Output is byte-identical across counts,
	// so these isolate the scheduler's cost/benefit.
	if d5, err := bench.Generate("S5"); err == nil {
		var j1 int64
		for _, workers := range []int{1, 2, 4, 8} {
			params := pacor.DefaultParams()
			params.Workers = workers
			r := bestOf(3, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := pacor.Route(d5, params); err != nil {
						b.Fatal(err)
					}
				}
			})
			name := fmt.Sprintf("FlowS5Workers%d", workers)
			record(name, r, fmt.Sprintf("full S5 flow, scheduler workers=%d (byte-identical output)", workers))
			tag(name, "auto", "S", "flat")
			if workers == 1 {
				j1 = r.NsPerOp()
			} else {
				m := snap.Benchmarks[name]
				m.SpeedupVs = "FlowS5Workers1"
				m.Speedup = float64(j1) / float64(r.NsPerOp())
				snap.Benchmarks[name] = m
			}
		}
	} else {
		fatal(err)
	}

	// The cross-run design cache on the interactive edit loop (route S5, move
	// one valve, re-route): ColdMiss is the uncached per-step cost, ExactHit
	// replays an unchanged design from the store, NearHit routes ordinary-
	// valve nudges warm-seeded by the cached parent (byte-identical output),
	// and NearHitLM nudges a length-matching valve — the edit class that
	// invalidates its own cluster's candidates and re-runs the MWCP solver, so
	// its speedup is bounded by the negotiation replays alone.
	if d5, err := bench.Generate("S5"); err == nil {
		params := pacor.DefaultParams()
		record("EditLoopColdMiss", bestOf(3, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pacor.Route(d5, params); err != nil {
					b.Fatal(err)
				}
			}
		}), "S5 edit-loop step without the design cache")
		tag("EditLoopColdMiss", "auto", "S", "flat")

		record("EditLoopExactHit", bestOf(3, func(b *testing.B) {
			r := designcache.New(designcache.Options{})
			if _, err := r.Route(d5, params); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Route(d5, params); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if s := r.Snapshot(); s.Hits != b.N {
				b.Fatalf("expected %d exact hits, got %+v", b.N, s)
			}
		}), "unchanged S5 replayed from the cache store (raw-key exact hit)")
		tag("EditLoopExactHit", "auto", "S", "flat")

		ordinary, lmNudges := editVariants(d5)
		nearRow := func(variants []*valve.Design) func(b *testing.B) {
			return func(b *testing.B) {
				// Two entries: the parent plus the last-routed variant.
				// The parent is touched on every seed pick so it stays
				// resident while each routed variant is evicted — every
				// iteration is a genuine near hit even after b.N wraps
				// the variant list (a bigger cache would silently turn
				// revisited variants into exact hits).
				r := designcache.New(designcache.Options{MaxEntries: 2})
				if _, err := r.Route(d5, params); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := r.Route(variants[i%len(variants)], params); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				s := r.Snapshot()
				if s.NearHits == 0 || s.SeededHits == 0 {
					b.Fatalf("edit loop never warm-seeded: %+v", s)
				}
				if s.Hits != 0 {
					b.Fatalf("edit loop served %d exact hits — revisited variants leaked into the cache: %+v", s.Hits, s)
				}
			}
		}
		record("EditLoopNearHit", bestOf(3, nearRow(ordinary)),
			"ordinary-valve nudges of S5 warm-seeded by the cached parent (negotiation replay + LM candidate/selection replay, byte-identical output)")
		tag("EditLoopNearHit", "auto", "S", "flat")
		record("EditLoopNearHitLM", bestOf(3, nearRow(lmNudges)),
			"LM-valve nudges of S5: the moved cluster re-runs candidates and the selection, only negotiation replays (byte-identical output)")
		tag("EditLoopNearHitLM", "auto", "S", "flat")

		chainTo := func(name string) {
			m := snap.Benchmarks[name]
			m.SpeedupVs = "EditLoopColdMiss"
			m.Speedup = float64(snap.Benchmarks["EditLoopColdMiss"].NsPerOp) / float64(m.NsPerOp)
			snap.Benchmarks[name] = m
		}
		chainTo("EditLoopExactHit")
		chainTo("EditLoopNearHit")
		chainTo("EditLoopNearHitLM")
	} else {
		fatal(err)
	}

	// Sequential vs parallel sweep: one pass over designs x modes each way.
	names := strings.Split(*sweep, ",")
	seq := sweepOnce(names, 1)
	par := sweepOnce(names, runtime.GOMAXPROCS(0))
	snap.Benchmarks["Table2SweepSequential"] = Measurement{
		NsPerOp: seq.Nanoseconds(), N: 1, GoMaxProcs: runtime.GOMAXPROCS(0),
		Note: fmt.Sprintf("designs %s x 3 modes, 1 worker", *sweep),
	}
	snap.Benchmarks["Table2SweepParallel"] = Measurement{
		NsPerOp: par.Nanoseconds(), N: 1, GoMaxProcs: runtime.GOMAXPROCS(0),
		Note:      fmt.Sprintf("designs %s x 3 modes, %d workers", *sweep, runtime.GOMAXPROCS(0)),
		SpeedupVs: "Table2SweepSequential",
		Speedup:   float64(seq.Nanoseconds()) / float64(par.Nanoseconds()),
	}
	fmt.Printf("%-28s %12d ns (1 worker)\n", "Table2SweepSequential", seq.Nanoseconds())
	fmt.Printf("%-28s %12d ns (%d workers, %.2fx)\n", "Table2SweepParallel",
		par.Nanoseconds(), runtime.GOMAXPROCS(0), float64(seq.Nanoseconds())/float64(par.Nanoseconds()))

	// ChipXL: the million-cell family. The A* rows isolate the open-list
	// swap on a 1000x1000 corner-to-corner search (the scenario where the
	// bucket queue's O(1) pops dominate); the flow rows use the density-
	// preserving 300x300 member, because the full chip takes minutes per op
	// (BenchmarkFlowChipXL/Full exists for that, behind -short).
	gx, obsx, srcx, dstx := chipXLSearch()
	reqx := route.Request{Sources: []geom.Pt{srcx}, Targets: []geom.Pt{dstx}, Obs: obsx}
	for _, mode := range []route.QueueMode{route.QueueHeap, route.QueueBucket} {
		name := "AStarChipXL" + title(mode.String())
		record(name, bestOf(5, func(b *testing.B) {
			ws := route.NewWorkspace(gx)
			ws.SetQueueMode(mode)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := ws.AStar(gx, reqx); !ok {
					b.Fatal("no path")
				}
			}
		}), "1000x1000 grid, 2% obstacles, corner to corner, open list forced to "+mode.String())
		tag(name, mode.String(), "ChipXL", "flat")
	}
	record("AStarChipXLBidir", bestOf(5, func(b *testing.B) {
		ws := route.NewWorkspace(gx)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := ws.BiAStar(gx, reqx); !ok {
				b.Fatal("no path")
			}
		}
	}), "same search, bidirectional (cost-identical, shape may differ; loses to guided unidirectional bucket A* on open grids)")
	tag("AStarChipXLBidir", "bidir", "ChipXL", "flat")
	for _, name := range []string{"AStarChipXLBucket", "AStarChipXLBidir"} {
		m := snap.Benchmarks[name]
		m.SpeedupVs = "AStarChipXLHeap"
		m.Speedup = float64(snap.Benchmarks["AStarChipXLHeap"].NsPerOp) / float64(m.NsPerOp)
		snap.Benchmarks[name] = m
	}

	// The global stage in isolation: tile coarsening plus the corridor-graph
	// adjacency sweep on the full-chip obstacle map — the fixed per-run cost
	// the hierarchy pays before any corridor is assigned.
	record("HierGlobalChipXL", bestOf(5, func(b *testing.B) {
		b.ReportAllocs()
		tl := route.NewTiling(obsx, route.DefaultTileSize)
		for i := 0; i < b.N; i++ {
			tl.Rebuild(obsx, route.DefaultTileSize)
			arcs := 0
			tl.ForEachAdjacency(func(u, v, c int) { arcs++ })
			if arcs == 0 {
				b.Fatal("no tile adjacencies")
			}
		}
	}), "1000x1000 tile coarsening rebuild + adjacency sweep (the global stage's fixed cost)")
	tag("HierGlobalChipXL", "", "ChipXL", "global")

	member := bench.XLSpec(300, 216, 0.02)
	if dx, err := bench.GenerateSpec(member); err == nil {
		flow := func(mode route.QueueMode, hier route.HierMode) func(b *testing.B) {
			return func(b *testing.B) {
				params := pacor.DefaultParams()
				params.Queue = mode
				params.Hier.Mode = hier
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := pacor.Route(dx, params); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		// The heap/bucket rows keep their PR 6 names so the baseline chain
		// stays comparable; at 300x300 (> the HierAuto threshold) they now
		// route the escape stage hierarchically. The flat row pins the PR 6
		// code path on this hardware.
		for _, mode := range []route.QueueMode{route.QueueHeap, route.QueueBucket} {
			name := "FlowChipXL300" + title(mode.String())
			record(name, bestOf(3, flow(mode, route.HierAuto)),
				"full flow on the density-preserving 300x300 ChipXL member ("+member.Name+"); HierAuto engages the two-stage escape here")
			tag(name, mode.String(), "ChipXL", "detailed")
		}
		record("FlowChipXL300Flat", bestOf(3, flow(route.QueueBucket, route.HierOff)),
			"same flow with the hierarchy forced off — the PR 6 flat escape path; the bucket row over this one is the tentpole speedup at j=1")
		tag("FlowChipXL300Flat", "bucket", "ChipXL", "flat")
		chain := func(name, vs string) {
			m := snap.Benchmarks[name]
			m.SpeedupVs = vs
			m.Speedup = float64(snap.Benchmarks[vs].NsPerOp) / float64(m.NsPerOp)
			snap.Benchmarks[name] = m
		}
		chain("FlowChipXL300Bucket", "FlowChipXL300Flat")
		chain("FlowChipXL300Heap", "FlowChipXL300Flat")
	} else {
		fatal(err)
	}

	// The full 1000x1000 chip — killed at the default test timeout before the
	// hierarchy, now a single measured op (one run: the op takes minutes, and
	// a second would double the snapshot's wall-clock for noise reduction the
	// single-op rows can't use anyway).
	if full, err := bench.Generate("ChipXL"); err == nil {
		record("FlowChipXLFull", bestOf(1, func(b *testing.B) {
			params := pacor.DefaultParams()
			params.Queue = route.QueueBucket
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pacor.Route(full, params); err != nil {
					b.Fatal(err)
				}
			}
		}), "full 1000x1000 ChipXL flow, hierarchy on by HierAuto (un-skipped by the two-stage escape)")
		tag("FlowChipXLFull", "bucket", "ChipXL", "detailed")
	} else {
		fatal(err)
	}

	var notes []string
	if runtime.NumCPU() == 1 {
		notes = append(notes, "single-CPU host: parallel worker counts cannot exceed 1x wall-clock; "+
			"the j>1 rows measure scheduler overhead, not attainable speedup")
	}
	notes = append(notes, "ChipXL flow rows with stage=detailed route the escape stage through the "+
		"two-stage hierarchy (HierAuto engages above 80000 cells); their output is approximate — "+
		"at 300x300 completion stays 100% with flat-parity matched counts and ~12% longer escape "+
		"channels, while larger members trade completion for tractability "+
		"(see EXPERIMENTS.md for the measured deltas); all Table 1 rows are below the threshold and "+
		"byte-identical to PR 6")
	snap.Notes = strings.Join(notes, " | ")
	if *baseline != "" {
		if err := annotateBaseline(&snap, *baseline); err != nil {
			fatal(err)
		}
	}

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Println("wrote", *out)
}

// annotateBaseline loads a prior snapshot and stamps, on every measurement
// sharing a name with a baseline entry, the baseline ns/op and the speedup
// ratio of this run over it.
func annotateBaseline(snap *Snapshot, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Snapshot
	if err := json.Unmarshal(data, &base); err != nil {
		return err
	}
	// Chain validation: a snapshot must diff against a genuinely older link.
	// A baseline with no pr field, or one at or ahead of this snapshot's PR,
	// means the chain is miswired (wrong file, or a copy edited by hand) and
	// every speedup_vs_baseline it would produce is meaningless — fail loudly
	// instead of emitting a plausible-looking snapshot.
	if base.PR == 0 {
		return fmt.Errorf("baseline %s has no pr field — not a benchjson snapshot", path)
	}
	if base.PR >= snap.PR {
		return fmt.Errorf("baseline %s is PR %d, not older than this snapshot's PR %d — chain broken", path, base.PR, snap.PR)
	}
	if want := fmt.Sprintf("BENCH_PR%d.json", base.PR); filepath.Base(path) != want {
		return fmt.Errorf("baseline %s carries pr=%d but is not named %s — chain broken", path, base.PR, want)
	}
	snap.Baseline = path
	names := make([]string, 0, len(snap.Benchmarks))
	for name := range snap.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := snap.Benchmarks[name]
		bm, ok := base.Benchmarks[name]
		if !ok || bm.NsPerOp == 0 || m.NsPerOp == 0 {
			continue
		}
		m.BaselineNsPerOp = bm.NsPerOp
		m.SpeedupVsBaseline = float64(bm.NsPerOp) / float64(m.NsPerOp)
		snap.Benchmarks[name] = m
		fmt.Printf("%-28s vs PR%d: %.2fx\n", name, base.PR, m.SpeedupVsBaseline)
	}
	return nil
}

// sweepOnce routes every design x mode with the given worker count and
// returns the wall time — the same pool shape as cmd/table2.
func sweepOnce(names []string, workers int) time.Duration {
	type job struct {
		name string
		mode pacor.Mode
	}
	var jobs []job
	for _, n := range names {
		for _, m := range []pacor.Mode{pacor.ModeWithoutSelection, pacor.ModeDetourFirst, pacor.ModePACOR} {
			jobs = append(jobs, job{n, m})
		}
	}
	start := time.Now()
	next := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				d, err := bench.Generate(j.name)
				if err != nil {
					fatal(err)
				}
				params := pacor.DefaultParams()
				params.Mode = j.mode
				if _, err := pacor.Route(d, params); err != nil {
					fatal(err)
				}
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	return time.Since(start)
}

// editVariants enumerates every valid single-valve unit nudge of d, split
// into ordinary-valve and LM-cluster-valve moves (mirrors the
// BenchmarkFlowEditLoop split in bench_test.go).
func editVariants(d *valve.Design) (ordinary, lm []*valve.Design) {
	inLM := make(map[int]bool)
	for _, c := range d.LMClusters {
		for _, id := range c {
			inLM[id] = true
		}
	}
	dirs := [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
	for i := range d.Valves {
		for _, dir := range dirs {
			nd, err := bench.Nudge(d, i, dir[0], dir[1])
			if err != nil {
				continue
			}
			if inLM[d.Valves[i].ID] {
				lm = append(lm, nd)
			} else {
				ordinary = append(ordinary, nd)
			}
		}
	}
	if len(ordinary) == 0 || len(lm) == 0 {
		fatal(fmt.Errorf("edit variants: %d ordinary, %d lm — need both", len(ordinary), len(lm)))
	}
	return ordinary, lm
}

// title upper-cases the first letter of a queue-mode name for row naming.
func title(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

// chipXLSearch mirrors the BenchmarkAStarChipXL scenario in bench_test.go: a
// 1000x1000 grid with 2% scattered obstacles, corner to corner.
func chipXLSearch() (grid.Grid, *grid.ObsMap, geom.Pt, geom.Pt) {
	const n = 1000
	g := grid.New(n, n)
	obs := grid.NewObsMap(g)
	rng := rand.New(rand.NewSource(90001))
	for i := 0; i < n*n/50; i++ {
		obs.Set(geom.Pt{X: rng.Intn(n), Y: rng.Intn(n)}, true)
	}
	src := geom.Pt{X: 1, Y: 1}
	dst := geom.Pt{X: n - 2, Y: n - 2}
	obs.Set(src, false)
	obs.Set(dst, false)
	return g, obs, src, dst
}

// s5SizedSearch mirrors the BenchmarkAStarReuse scenario in bench_test.go:
// an S5-sized (152x152) grid with scattered obstacles, corner to corner.
func s5SizedSearch() (grid.Grid, *grid.ObsMap, geom.Pt, geom.Pt) {
	g := grid.New(152, 152)
	obs := grid.NewObsMap(g)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1500; i++ {
		obs.Set(geom.Pt{X: rng.Intn(152), Y: rng.Intn(152)}, true)
	}
	src := geom.Pt{X: 1, Y: 1}
	dst := geom.Pt{X: 150, Y: 150}
	obs.Set(src, false)
	obs.Set(dst, false)
	return g, obs, src, dst
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
