// Command experiments regenerates every table and figure of the paper's
// evaluation programme; each table's title names the paper section it
// reproduces. Run with no arguments for the full suite, or name
// experiment ids (e1 ... e12) to run a subset (README, "Run the CLI").
// With -json the tables are written as JSON, elapsed times blanked:
// `experiments -json > QUALITY.json` regenerates the fidelity ledger.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	workers := flag.Int("workers", 0, "pipeline worker pool size (0 = all CPUs, 1 = serial)")
	asJSON := flag.Bool("json", false, "write the tables as JSON with elapsed times blanked (the format of QUALITY.json)")
	flag.Parse()
	experiments.Workers = *workers
	var tables []experiments.Table
	var err error
	if flag.NArg() == 0 {
		tables, err = experiments.All()
	}
	for _, arg := range flag.Args() {
		var tbl experiments.Table
		if tbl, err = run(strings.ToLower(arg)); err != nil {
			break
		}
		tables = append(tables, tbl)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if jerr := enc.Encode(blankElapsed(tables)); err == nil {
			err = jerr
		}
	} else {
		for _, t := range tables {
			t.Print(os.Stdout)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// elapsed marks, per table, the column whose cells are wall-clock times
// (in E12 only the search-top1 row's detail, its mean latency). They
// differ run to run; every other cell is deterministic at fixed seeds.
var elapsed = map[string]struct{ column, row string }{
	"E1": {"aladin-wall", ""}, "E2": {"time", ""}, "E10": {"add-time", ""},
	"E11": {"reanalysis-time", ""}, "E12": {"detail", "search-top1"},
}

// blankElapsed replaces every wall-clock cell with "(elapsed)".
func blankElapsed(tables []experiments.Table) []experiments.Table {
	for _, t := range tables {
		e, ok := elapsed[t.ID]
		if !ok {
			continue
		}
		for col, h := range t.Header {
			if h != e.column {
				continue
			}
			for _, r := range t.Rows {
				if e.row == "" || r[0] == e.row {
					r[col] = "(elapsed)"
				}
			}
		}
	}
	return tables
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
