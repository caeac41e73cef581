// Command perfbench is the repository's routing benchmark. One process runs
// one workload as a closed loop with a single client: it sets up, then makes
// whole passes over the workload's fixed request list, each request one
// timed call into pacor.Route or designcache.Router.Route, until the given
// seconds have elapsed. Every response is checked outside the timed
// interval. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run instead replays every routed request layer by layer, reports
// per-layer metrics, and writes a Chrome trace and a self-time table to
// --out. BENCHMARK.json at the root of the repository lists the workloads
// and metrics. Build and run it with perfbench/run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: s5, chip2, edit or xl300")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed (draws the edit sessions)")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "time to keep starting passes")
	flag.IntVar(&trace, "trace", 0, "1 replays the layers and reports per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for the traced run's files")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
