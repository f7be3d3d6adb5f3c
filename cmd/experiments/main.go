// Command experiments regenerates every table and figure of the paper's
// evaluation programme; each table's title names the paper section it
// reproduces. Run with no arguments for the full suite, or name
// experiment ids (e1 ... e12) to run a subset (README, "Run the CLI").
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	workers := flag.Int("workers", 0, "pipeline worker pool size (0 = all CPUs, 1 = serial)")
	flag.Parse()
	experiments.Workers = *workers
	if flag.NArg() == 0 {
		tables, err := experiments.All()
		for _, t := range tables {
			t.Print(os.Stdout)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}
	for _, arg := range flag.Args() {
		tbl, err := run(strings.ToLower(arg))
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		tbl.Print(os.Stdout)
	}
}

func run(id string) (experiments.Table, error) {
	switch id {
	case "e1":
		return experiments.E1Table1(40)
	case "e2":
		return experiments.E2Pipeline(40)
	case "e3":
		return experiments.E3BioSQL()
	case "e4":
		return experiments.E4PrimaryPR(40)
	case "e5":
		return experiments.E5ForeignKeyPR(40)
	case "e6":
		return experiments.E6XRefPR(40)
	case "e7":
		return experiments.E7SequencePR(30)
	case "e8":
		return experiments.E8TextPR(40)
	case "e9":
		return experiments.E9DuplicatePR(40)
	case "e10":
		return experiments.E10Scaling()
	case "e11":
		return experiments.E11ChangeThreshold(40)
	case "e12":
		return experiments.E12SearchBrowse(40)
	}
	return experiments.Table{}, fmt.Errorf("unknown experiment %q (use e1..e12)", id)
}
