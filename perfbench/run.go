package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/designcache"
	"repro/internal/pacor"
	"repro/internal/report"
	"repro/internal/valve"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// out is where a traced run writes its Chrome trace and self-time
	// table; empty writes nothing.
	out string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// quality is a pass's routing outcome, summed over its responses.
type quality struct {
	matched, totalLen, routed, valves int
}

func (q quality) completion() float64 { return 100 * float64(q.routed) / float64(q.valves) }

// counters are a pass's deterministic work counts; two passes over the same
// request list must agree on every field.
type counters struct {
	layers           layerCounts
	searches, rounds int
	hits, routed     int
}

// passOut is what one pass over the request list measured.
type passOut struct {
	requestMS []float64 // wall time of each request, in list order
	sessionMS float64   // their sum
	heldMB    float64
	quality   quality
	counters  counters
	// Summed over the timed calls.
	allocMB      float64
	mallocs, gcs uint64
	// The design cache's exact hits and routed requests: the timed
	// requests on edit, the traced run's cache calls elsewhere.
	hitMS, routedMS []float64
	// Traced passes only: the pacor.Route spans, the replayed layers and
	// the checks.
	flowMS   []float64
	layers   []layerTimes
	verifyMS []float64
	// The responses and their request ids, for the checks after the pass.
	responses       []*pacor.Result
	ids             []int
	attempted, fail int
}

// runner holds what a run shares between its passes.
type runner struct {
	w   workload
	p   pacor.Params
	rec *recorder // nil in the untraced run
	req int       // next request id
}

func (r *runner) failf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "FAIL %s: %s\n", r.w.name, fmt.Sprintf(format, args...))
}

// pass routes the request list once. Every request is one timed call into
// a public entry point, preceded by forced GCs; with rec set, the request
// is traced and its layers replayed after the timed call. heldMB is the
// heap the pass leaves reachable: its responses and, on edit, the cache.
func (r *runner) pass(reqs []*valve.Design, rec *recorder) passOut {
	var out passOut
	var before, after runtime.MemStats
	gc2()
	runtime.ReadMemStats(&before)
	base := before.HeapAlloc
	var router *designcache.Router
	routeFn, name := pacor.Route, spanFlow
	if r.w.edit {
		router = designcache.New(designcache.Options{})
		routeFn, name = router.Route, spanCache
	}
	for i, d := range reqs {
		id := r.req
		r.req++
		out.ids = append(out.ids, id)
		gc2()
		hits := 0
		if router != nil {
			hits = router.Snapshot().Hits
		}
		rec.reserve(2)
		runtime.ReadMemStats(&before)
		root := rec.begin(spanRequest, id, -1)
		t := rec.begin(name, id, root.idx)
		res, err := routeFn(d, r.p)
		dt := t.stop()
		runtime.ReadMemStats(&after)
		out.attempted++
		out.requestMS = append(out.requestMS, dt)
		out.sessionMS += dt
		out.responses = append(out.responses, res)
		out.allocMB += float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		out.mallocs += after.Mallocs - before.Mallocs
		out.gcs += uint64(after.NumGC - before.NumGC)
		if err != nil {
			out.fail++
			r.failf("route request %d: %v", i, err)
			root.stop()
			continue
		}
		hit := router != nil && router.Snapshot().Hits > hits
		switch {
		case hit:
			out.counters.hits++
			out.hitMS = append(out.hitMS, dt)
		case router != nil:
			out.counters.routed++
			out.routedMS = append(out.routedMS, dt)
		}
		if !hit {
			out.counters.searches += res.Negotiate.Searches
			out.counters.rounds += res.Negotiate.Rounds
			if rec != nil {
				r.replay(rec, id, root.idx, d, res, dt, &out)
			}
		}
		root.stop()
	}
	gc2()
	runtime.ReadMemStats(&after)
	out.heldMB = (float64(after.HeapAlloc) - float64(base)) / (1 << 20)
	runtime.KeepAlive(router)
	return out
}

// gc2 collects twice. The second collection empties the sync.Pool victim
// caches, so every request starts from the same pool state (its allocation
// counts repeat exactly) and pooled scratch space never counts as held.
func gc2() {
	runtime.GC()
	runtime.GC()
}

// replay makes the traced run's extra calls for one routed request: the
// traced cold pacor.Route (on edit; elsewhere the timed call is that
// route), the design cache on workloads that do not use it (a miss, then
// an exact hit, through a fresh Router), and every layer's public function.
func (r *runner) replay(rec *recorder, id, parent int, d *valve.Design, res *pacor.Result, dt float64, out *passOut) {
	if r.w.edit {
		t := rec.begin(spanFlow, id, parent)
		cold, err := pacor.Route(d, r.p)
		out.flowMS = append(out.flowMS, t.stop())
		if err != nil || !sameResult(cold, res) {
			out.fail++
			r.failf("request %d: cached response differs from a cold route (err %v)", id, err)
			return
		}
	} else {
		out.flowMS = append(out.flowMS, dt)
		c := designcache.New(designcache.Options{})
		for want := 0; want < 2; want++ {
			t := rec.begin(spanCache, id, parent)
			_, err := c.Route(d, r.p)
			ms := t.stop()
			if hits := c.Snapshot().Hits; err != nil || hits != want {
				out.fail++
				r.failf("request %d: cache call %d made %d hits (err %v)", id, want, hits, err)
				return
			}
			if want == 0 {
				out.counters.routed++
				out.routedMS = append(out.routedMS, ms)
			} else {
				out.counters.hits++
				out.hitMS = append(out.hitMS, ms)
			}
		}
	}
	n, lt, err := replayLayers(rec, id, parent, d, r.p, res)
	if err != nil {
		out.fail++
		r.failf("request %d: layer replay: %v", id, err)
		return
	}
	out.counters.layers.add(n)
	out.layers = append(out.layers, lt)
}

// check verifies every response of a pass with pacor.Verify and
// report.Validate and sums the quality of those that pass.
func (r *runner) check(reqs []*valve.Design, out *passOut, rec *recorder) {
	for i, res := range out.responses {
		if res == nil {
			continue
		}
		t := rec.begin(spanVerify, out.ids[i], -1)
		err := pacor.Verify(reqs[i], res)
		if err == nil {
			err = report.Validate(reqs[i], res)
		}
		out.verifyMS = append(out.verifyMS, t.stop())
		if err != nil {
			out.fail++
			r.failf("request %d does not verify: %v", i, err)
			continue
		}
		out.quality.matched += res.MatchedClusters
		out.quality.totalLen += res.TotalLen
		out.quality.routed += res.RoutedValves
		out.quality.valves += res.TotalValves
	}
}

// resultJSON is res as WriteJSON prints it, with the runtime zeroed so two
// routes of one design compare equal.
func resultJSON(res *pacor.Result) []byte {
	c := *res
	c.Runtime = 0
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		return nil
	}
	return buf.Bytes()
}

func sameResult(a, b *pacor.Result) bool {
	ja := resultJSON(a)
	return ja != nil && bytes.Equal(ja, resultJSON(b))
}

// setupOut is one set-up: the request list, its warm-up pass and timings.
type setupOut struct {
	reqs   []*valve.Design
	warm   passOut
	sec    float64
	loadMS float64
}

// setup is what a fresh process does before its first result: generate the
// design, send it through a JSON round trip, draw the request list and run
// one untimed warm-up pass. It is all charged to setup_s.
func (r *runner) setup() (setupOut, error) {
	var s setupOut
	runtime.GC()
	start := time.Now()
	t := r.rec.begin(spanLoad, -1, -1)
	d, err := r.w.load()
	s.loadMS = t.stop()
	if err != nil {
		return s, err
	}
	s.reqs = []*valve.Design{d}
	if r.w.edit {
		if s.reqs, err = editSession(d, editSessionSeed); err != nil {
			return s, err
		}
	}
	s.warm = r.pass(s.reqs, nil)
	s.sec = time.Since(start).Seconds()
	r.check(s.reqs, &s.warm, nil)
	return s, nil
}

// run performs one benchmark run: the workload's set-ups, then whole passes
// until cfg.seconds have elapsed.
func run(cfg config) (result, error) {
	w, err := lookupWorkload(cfg.workload)
	if err != nil {
		return result{}, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))

	r := &runner{w: w, p: w.params()}
	if cfg.trace {
		r.rec = newRecorder()
	}
	var res result
	var setupSec, loadMS []float64
	setUp := func() (setupOut, error) {
		s, err := r.setup()
		if err != nil {
			return s, err
		}
		setupSec = append(setupSec, s.sec)
		loadMS = append(loadMS, s.loadMS)
		res.Attempted += s.warm.attempted
		res.Failed += s.warm.fail
		return s, nil
	}
	s, err := setUp()
	if err != nil {
		return result{}, err
	}
	reqs := s.reqs
	ref := s.warm.quality
	if w.edit {
		// Every response of the warm-up session, and of a session drawn
		// from the run's seed through a fresh cache, must equal a cold
		// route of the same design.
		probe, err := editSession(reqs[0], cfg.seed)
		if err != nil {
			return result{}, err
		}
		po := r.pass(probe, nil)
		r.check(probe, &po, nil)
		res.Attempted += po.attempted
		res.Failed += po.fail
		for _, cmp := range []struct {
			name string
			reqs []*valve.Design
			out  passOut
		}{{"warm-up", reqs, s.warm}, {"seed", probe, po}} {
			for i, d := range cmp.reqs {
				cold, err := pacor.Route(d, r.p)
				res.Attempted++
				if err != nil || cmp.out.responses[i] == nil || !sameResult(cold, cmp.out.responses[i]) {
					res.Failed++
					r.failf("%s session request %d differs from a cold route (err %v)", cmp.name, i, err)
				}
			}
		}
	}
	s = setupOut{}

	// The first set-up precedes timing; the others are spread over the run
	// between passes, so that setup_s, the fastest of them, samples the
	// host's speed across the run as route_ms_min does. A run too short for
	// them makes the rest at its end.
	var passes []passOut
	start := time.Now()
	every := cfg.seconds / float64(w.setups)
	for len(passes) == 0 || time.Since(start).Seconds() < cfg.seconds {
		if len(setupSec) < w.setups && time.Since(start).Seconds() >= every*float64(len(setupSec)) {
			if _, err := setUp(); err != nil {
				return result{}, err
			}
			continue
		}
		po := r.pass(reqs, r.rec)
		r.check(reqs, &po, r.rec)
		res.Attempted += po.attempted
		res.Failed += po.fail
		if po.quality != ref {
			res.Failed++
			r.failf("pass %d quality %+v differs from the warm-up's %+v", len(passes), po.quality, ref)
		}
		if cfg.trace && len(passes) > 0 && po.counters != passes[0].counters {
			res.Failed++
			r.failf("pass %d counters %+v differ from pass 0's %+v", len(passes), po.counters, passes[0].counters)
		}
		po.responses = nil
		passes = append(passes, po)
	}
	for len(setupSec) < w.setups {
		if _, err := setUp(); err != nil {
			return result{}, err
		}
	}
	res.Correct = res.Failed == 0
	if cfg.trace {
		res.Metrics = layerMetrics(passes, loadMS)
		if cfg.out != "" {
			if err := r.rec.writeTraceFiles(cfg.out, w.name, cfg.seed); err != nil {
				return result{}, err
			}
		}
	} else {
		res.Metrics = endToEndMetrics(w, passes, setupSec)
	}
	return res, nil
}

// endToEndMetrics are what a user of the router sees, measured untraced.
// Times are minimums over the run. A request does the same work every time
// (its search counts repeat exactly, its allocation counts on s5 and chip2
// too), so time above the fastest sample is time the host took away: on a shared 2-vCPU host the
// medians of consecutive 20 s windows of S5 routes ranged 95-143 ms while
// their minimums ranged 81-89 ms.
func endToEndMetrics(w workload, passes []passOut, setupSec []float64) map[string]metric {
	var route, session, held []float64
	for _, po := range passes {
		if w.edit {
			// The session's parent: a cold route through the cache.
			route = append(route, po.requestMS[0])
		} else {
			route = append(route, po.requestMS...)
		}
		session = append(session, po.sessionMS)
		held = append(held, po.heldMB)
	}
	q := passes[0].quality
	return map[string]metric{
		"route_ms_min":     {quantile(route, 0), "ms"},
		"session_ms_min":   {quantile(session, 0), "ms"},
		"setup_s":          {quantile(setupSec, 0), "s"},
		"held_mb":          {median(held), "MB"},
		"matched_clusters": {float64(q.matched), "count"},
		"total_len":        {float64(q.totalLen), "cells"},
		"completion":       {q.completion(), "%"},
	}
}

// layerMetrics are the traced run's per-layer numbers: times are medians
// over requests (over passes for the runtime counters), counts are per pass.
func layerMetrics(passes []passOut, loadMS []float64) map[string]metric {
	var flow, hit, routed, verify, alloc, mallocs, gcs []float64
	var cl, dm, sel, neg, mst, esc []float64
	for _, po := range passes {
		flow = append(flow, po.flowMS...)
		hit = append(hit, po.hitMS...)
		routed = append(routed, po.routedMS...)
		verify = append(verify, po.verifyMS...)
		alloc = append(alloc, po.allocMB)
		mallocs = append(mallocs, float64(po.mallocs))
		gcs = append(gcs, float64(po.gcs))
		for _, lt := range po.layers {
			cl = append(cl, lt.cluster)
			dm = append(dm, lt.dme)
			sel = append(sel, lt.seltree)
			neg = append(neg, lt.negotiate)
			mst = append(mst, lt.mst)
			esc = append(esc, lt.escape)
		}
	}
	c := passes[0].counters
	count := func(n int) metric { return metric{float64(n), "count"} }
	msm := func(v float64) metric { return metric{v, "ms"} }
	return map[string]metric{
		"flow.route_ms":             msm(median(flow)),
		"flow.route_ms_min":         msm(quantile(flow, 0)),
		"flow.route_ms_p90":         msm(quantile(flow, 0.9)),
		"cluster.ms":                msm(median(cl)),
		"cluster.lm_trees":          count(c.layers.lmTrees),
		"dme.ms":                    msm(median(dm)),
		"dme.candidates":            count(c.layers.candidates),
		"seltree.ms":                msm(median(sel)),
		"seltree.nodes":             count(c.layers.nodes),
		"route.negotiate_ms":        msm(median(neg)),
		"route.searches":            count(c.searches),
		"route.rounds":              count(c.rounds),
		"mstroute.ms":               msm(median(mst)),
		"escape.ms":                 msm(median(esc)),
		"escape.terminals":          count(c.layers.terminals),
		"escape.unrouted":           count(c.layers.unrouted),
		"designcache.hit_ms_p50":    msm(median(hit)),
		"designcache.routed_ms_p50": msm(median(routed)),
		"designcache.hits":          count(c.hits),
		"designcache.routed":        count(c.routed),
		"report.verify_ms":          msm(median(verify)),
		"valve.load_ms":             msm(median(loadMS)),
		"runtime.alloc_mb":          {median(alloc), "MB"},
		"runtime.mallocs":           {median(mallocs), "count"},
		"runtime.gc_cycles":         {median(gcs), "count"},
	}
}
