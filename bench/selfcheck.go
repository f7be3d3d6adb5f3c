package main

import (
	"fmt"
	"math"
	"os"
	"text/tabwriter"
)

// runSelfcheck runs every workload twice on the same inputs and compares
// the two results metric by metric: the relative difference must stay
// within the metric's bound, or the benchmark could not tell a regression
// of that size from noise.
func runSelfcheck(e *env, seed int64, seconds float64) error {
	printHeader(e, seed, seconds)
	first, err := runEach(e, seed, seconds)
	if err != nil {
		return err
	}
	second, err := runEach(e, seed, seconds)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tfirst\tsecond\tdifference\tbound\t\t")
	misses := 0
	for i, sp := range specs {
		for _, d := range endToEnd {
			a, b := first[i].metrics[d.name], second[i].metrics[d.name]
			diff := math.Abs(b-a) / math.Abs(a)
			verdict := "ok"
			// No end-to-end metric is ever 0 on a working system (and a
			// difference relative to 0 is NaN or infinite, which compares
			// false with any bound).
			if a == 0 || b == 0 || diff > d.bound {
				verdict = "MISS"
				misses++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.3f\t%.2f\t%s\t\n", sp.name, d.name, d.unit, a, b, diff, d.bound, verdict)
		}
		if f := first[i].failed + second[i].failed; f > 0 {
			fmt.Fprintf(tw, "%s\tfailed operations\tcount\t%d\t%d\t\t\tMISS\t\n", sp.name, first[i].failed, second[i].failed)
			misses++
		}
	}
	tw.Flush()
	if misses > 0 {
		return fmt.Errorf("selfcheck: %d metrics differ between two runs of the same commit by more than their bound", misses)
	}
	return nil
}
