// The fidelity ledger: QUALITY.json holds every cell of the E1–E12
// tables (`go run ./cmd/experiments -json > QUALITY.json`), and this
// test replays it at tolerance 0. A change that moves a P/R/F1 cell, a
// count or a selection shows up as a reviewed diff of that file.
package repro

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/experiments"
)

// wallClock reports whether a cell holds an elapsed time: the columns
// E1 aladin-wall, E2 time, E10 add-time and E11 reanalysis-time, and
// E12's search-top1 detail (its mean latency). These differ run to run,
// so the ledger blanks them; every other cell is deterministic at the
// experiments' fixed seeds, at any worker count.
func wallClock(table, column, firstCell string) bool {
	switch table + " " + column {
	case "E1 aladin-wall", "E2 time", "E10 add-time", "E11 reanalysis-time":
		return true
	case "E12 detail":
		return firstCell == "search-top1"
	}
	return false
}

// TestQualityLedger runs every experiment and compares each table with
// QUALITY.json: IDs, titles, headers, notes and every cell exactly,
// except the wall-clock cells, which the ledger must hold blanked.
func TestQualityLedger(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation makes the experiments slow; CI replays the ledger without -race")
	}
	raw, err := os.ReadFile("QUALITY.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []experiments.Table
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got, err := experiments.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d tables, QUALITY.json has %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.ID != w.ID || g.Title != w.Title || !reflect.DeepEqual(g.Header, w.Header) ||
			!reflect.DeepEqual(g.Notes, w.Notes) || len(g.Rows) != len(w.Rows) {
			t.Errorf("table %d: got %s %q, header %q, notes %q, %d rows; QUALITY.json has %s %q, header %q, notes %q, %d rows",
				i, g.ID, g.Title, g.Header, g.Notes, len(g.Rows), w.ID, w.Title, w.Header, w.Notes, len(w.Rows))
			continue
		}
		for r, wr := range w.Rows {
			gr := g.Rows[r]
			if len(gr) != len(w.Header) || len(wr) != len(w.Header) {
				t.Errorf("%s row %d: %d cells, QUALITY.json has %d, header %d", w.ID, r, len(gr), len(wr), len(w.Header))
				continue
			}
			for c, wc := range wr {
				if wallClock(w.ID, w.Header[c], wr[0]) {
					if wc != "(elapsed)" {
						t.Errorf("%s row %d %s: QUALITY.json holds %q, want the wall-clock blank \"(elapsed)\"", w.ID, r, w.Header[c], wc)
					}
				} else if gr[c] != wc {
					t.Errorf("%s row %d (%s) %s = %q, QUALITY.json has %q", w.ID, r, wr[0], w.Header[c], gr[c], wc)
				}
			}
		}
	}
}
