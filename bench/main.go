// Command bench is ALADIN's end-to-end benchmark: it generates its inputs
// from a seed, builds and boots real aladind processes, drives them over
// loopback HTTP, checks every answer against the generator's truth and
// prints the metrics BENCHMARK.json names. See README.md.
//
//	bench --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the result JSON
//	bench [-seed N] [-seconds S]                          every workload once, as a table
//	bench -selfcheck                                      every workload twice; fails when a metric misses its bound
//	bench -smoke                                          every workload once at a twentieth of the size
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"

	"repro/bench/server"
)

// metricDef is one metric as BENCHMARK.json declares it: name, unit, which
// direction is better, and — end-to-end metrics only — the share of the
// parent's median by which it may get worse before a change is rejected.
type metricDef struct {
	name, unit, better string
	bound              float64
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists the metrics of BENCHMARK.json's end_to_end section; every
// run of every workload reports all of them. Timings are wall-clock on a
// shared sandbox whose speed wanders by tens of percent over minutes (see
// README.md), so they get the widest bound allowed. Sizes and
// qualities depend on the seed alone and get tight bounds.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"ingest_records_per_s", "rec/s", higher, 0.25},
	{"server_peak_rss_mb", "MB", lower, 0.2},
	{"stored_bytes_per_user_byte", "ratio", lower, 0.05},
	{"integrate_s", "s", lower, 0.25},
	{"link_f1", "0..1", higher, 0.05},
	{"read_ops_per_s", "req/s", higher, 0.25},
	{"read_p50_ms", "ms", lower, 0.25},
	{"replica_bootstrap_s", "s", lower, 0.25},
	{"recover_ready_s", "s", lower, 0.25},
}

// httpRunLayer are the metrics the untraced HTTP run measures that head
// the per-layer list and carry no bound. The first three are end-to-end
// by nature but cannot repeat within a tenth on a shared sandbox: the first
// batch runs on a cold process, the lag is quantised by the replica's
// 100 ms long-poll tick, and the 99th percentile beside writes is the
// run's dozen worst stalls. The fourth says whether the workload's SQL
// texts fit aladind's plan cache (see planLRU). The last two are the
// factors by which the timings of the run's two halves were divided
// because the sandbox's CPU was shared (see contention.go); 1 is a CPU of
// the benchmark's own.
var httpRunLayer = []metricDef{
	{name: "ingest_first_visible_s", unit: "s", better: lower},
	{name: "repl_visible_lag_ms", unit: "ms", better: lower},
	{name: "read_p99_ms", unit: "ms", better: lower},
	{name: "aladin.plan_cache_miss_share", unit: "ratio", better: lower},
	{name: "sandbox.cpu_shared_load", unit: "ratio", better: lower},
	{name: "sandbox.cpu_shared_serve", unit: "ratio", better: lower},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line of one run.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload  = flag.String("workload", "", "run this workload once and print its result as one JSON line")
		seed      = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds   = flag.Float64("seconds", runSeconds, "run length; sizes are frozen at 20 and scale with this")
		traced    = flag.Int("trace", 0, "1 = also replay the inputs in-process with spans and report the per-layer metrics")
		root      = flag.String("root", ".", "checkout root (holds go.mod and cmd/aladind)")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice and compare the two against the bounds")
		smoke     = flag.Bool("smoke", false, "sizes / 20 (--seconds 1): a quick correctness pass, not a measurement")
		verbose   = flag.Bool("v", false, "print every repetition's timings to standard error")
	)
	flag.Parse()
	// The load generator shares the CPUs with the servers it measures;
	// collect its garbage less often than the default.
	debug.SetGCPercent(400)
	if *smoke {
		*seconds = runSeconds / 20.0
	}
	if err := dispatch(*workload, *seed, *seconds, *traced == 1, *root, *selfcheck, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func dispatch(workload string, seed int64, seconds float64, traced bool, root string, selfcheck, verbose bool) error {
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	for _, need := range []string{"go.mod", "cmd/aladind"} {
		if _, err := os.Stat(filepath.Join(root, need)); err != nil {
			return fmt.Errorf("%s is not a checkout of the repository: %w", root, err)
		}
	}
	work := filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	// Told to stop (a driver's timeout, ^C), leave nothing behind: no
	// server process and no scratch directory.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		server.KillAll()
		os.RemoveAll(work)
		os.Exit(1)
	}()
	e := &env{root: root, work: work, nproc: runtime.NumCPU(), verbose: verbose}

	switch {
	case selfcheck:
		return runSelfcheck(e, seed, seconds)
	case workload == "":
		return runAll(e, seed, seconds)
	}
	sp := specByName(workload)
	if sp == nil {
		return fmt.Errorf("unknown workload %q", workload)
	}
	o, err := runWorkload(e, sp, seed, seconds)
	if err != nil {
		return err
	}
	defs := endToEnd
	if traced {
		if err := replay(e, sp, o); err != nil {
			return err
		}
		defs = perLayer
	}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "bench: wrong output:", p)
	}
	rep := report{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", sp.name, d.name)
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
