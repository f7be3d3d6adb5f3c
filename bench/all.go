package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"
)

// printHeader records what a table of numbers was measured on. The commit
// is HEAD's, with "-dirty" when the checkout differs from it.
func printHeader(e *env, seed int64, seconds float64) {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", e.root, "describe", "--always", "--dirty").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	} else {
		fmt.Fprintf(os.Stderr, "bench: %s is not a git checkout, so the commit measured is unknown: %v\n", e.root, err)
	}
	fmt.Printf("commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d, seconds %g\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), seed, seconds)
}

// runAll runs every workload once and prints every metric of the HTTP run
// by name with its unit, and the operations attempted and failed.
func runAll(e *env, seed int64, seconds float64) error {
	printHeader(e, seed, seconds)
	outcomes, err := runEach(e, seed, seconds)
	if err != nil {
		return err
	}
	printTable(outcomes)
	for i, o := range outcomes {
		if o.failed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed", specs[i].name, o.failed, o.attempted)
		}
	}
	return nil
}

// runEach runs every workload once.
func runEach(e *env, seed int64, seconds float64) ([]*outcome, error) {
	var outcomes []*outcome
	for _, sp := range specs {
		t0 := time.Now()
		o, err := runWorkload(e, sp, seed, seconds)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.name, err)
		}
		fmt.Fprintf(os.Stderr, "bench: %s done in %.1fs\n", sp.name, time.Since(t0).Seconds())
		for _, p := range o.problems {
			fmt.Fprintf(os.Stderr, "bench: %s: wrong output: %s\n", sp.name, p)
		}
		outcomes = append(outcomes, o)
	}
	return outcomes, nil
}

func printTable(outcomes []*outcome) {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "metric\tunit\t")
	for _, sp := range specs {
		fmt.Fprintf(tw, "%s\t", sp.name)
	}
	fmt.Fprintln(tw)
	for _, d := range append(append([]metricDef(nil), endToEnd...), httpRunLayer...) {
		fmt.Fprintf(tw, "%s\t%s\t", d.name, d.unit)
		for _, o := range outcomes {
			fmt.Fprintf(tw, "%.4g\t", o.metrics[d.name])
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprint(tw, "failed/attempted\tcount\t")
	for _, o := range outcomes {
		fmt.Fprintf(tw, "%d/%d\t", o.failed, o.attempted)
	}
	fmt.Fprintln(tw)
	tw.Flush()
}
