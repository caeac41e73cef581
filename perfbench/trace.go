package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share req; parent indexes the enclosing span (-1 for a root).
type span struct {
	name       string
	req        int
	parent     int
	start, end time.Duration // since the recorder's epoch
}

// recorder keeps spans in memory until the run ends. A nil *recorder is a
// valid no-op recorder whose spans still report their duration, so the same
// call sites serve the traced and the untraced run.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// timer is an open span: the start time, and the recorder slot it fills.
type timer struct {
	rec   *recorder
	idx   int
	start time.Time
}

// begin opens a span named name under parent (-1 for a root) for request req.
func (r *recorder) begin(name string, req, parent int) timer {
	t := timer{rec: r, idx: -1, start: time.Now()}
	if r != nil {
		t.idx = len(r.spans)
		r.spans = append(r.spans, span{name: name, req: req, parent: parent, start: t.start.Sub(r.epoch)})
	}
	return t
}

// reserve grows the span buffer to take n more spans without allocating,
// so that opening spans inside a measured interval adds no mallocs.
func (r *recorder) reserve(n int) {
	if r != nil && cap(r.spans)-len(r.spans) < n {
		grown := make([]span, len(r.spans), 2*cap(r.spans)+n)
		copy(grown, r.spans)
		r.spans = grown
	}
}

// stop closes the span and returns its duration in milliseconds.
func (t timer) stop() float64 {
	now := time.Now()
	if t.rec != nil {
		t.rec.spans[t.idx].end = now.Sub(t.rec.epoch)
	}
	return ms(now.Sub(t.start))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// traceEvent is one Chrome trace-event "complete" event (ph "X"); ts and dur
// are in microseconds.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON, loadable in
// chrome://tracing or Perfetto.
func (r *recorder) writeChrome(w io.Writer) error {
	events := make([]traceEvent, len(r.spans))
	for i, s := range r.spans {
		events[i] = traceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Args: map[string]int{"req": s.req},
		}
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}{events})
}

// selfRow is one line of the self-time table.
type selfRow struct {
	name       string
	calls      int
	total, own time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the time its direct children cover; children never overlap, as the
// benchmark makes its calls one after another.
func (r *recorder) selfTimes() []selfRow {
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	byName := map[string]*selfRow{}
	var rows []*selfRow
	for i, s := range r.spans {
		row := byName[s.name]
		if row == nil {
			row = &selfRow{name: s.name}
			byName[s.name] = row
			rows = append(rows, row)
		}
		row.calls++
		row.total += s.end - s.start
		row.own += s.end - s.start - child[i]
	}
	out := make([]selfRow, len(rows))
	for i, row := range rows {
		out[i] = *row
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].own > out[j].own })
	return out
}

// writeSelfTable prints the self-time table, largest self time first.
func writeSelfTable(w io.Writer, rows []selfRow) {
	var all time.Duration
	for _, row := range rows {
		all += row.own
	}
	fmt.Fprintf(w, "%-24s %7s %12s %12s %7s\n", "span", "calls", "total_ms", "self_ms", "self%")
	for _, row := range rows {
		share := 0.0
		if all > 0 {
			share = 100 * float64(row.own) / float64(all)
		}
		fmt.Fprintf(w, "%-24s %7d %12.3f %12.3f %6.1f%%\n", row.name, row.calls, ms(row.total), ms(row.own), share)
	}
}

// writeTraceFiles writes the Chrome trace and the self-time table to dir,
// named after the workload and seed, and echoes the table to stderr.
func (r *recorder) writeTraceFiles(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, seed))
	f, err := os.Create(base + ".trace.json")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := r.writeChrome(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	rows := r.selfTimes()
	t, err := os.Create(base + ".selftime.txt")
	if err != nil {
		return err
	}
	writeSelfTable(t, rows)
	if err := t.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "self-time table (%s, seed %d):\n", workload, seed)
	writeSelfTable(os.Stderr, rows)
	return nil
}
