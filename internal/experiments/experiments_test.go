package experiments

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/discovery"
	"repro/internal/linkdisc"
	"repro/internal/profile"
	"repro/internal/rel"
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
// mutation rate, and the seeded-candidate, aligned and all-pairs counts,
// so a rewrite of the aligner cannot drift them silently. They are as
// measured at commit 82b2e5e — before each candidate pair was scored once
// for both directions — except for the aligned column and the cell at
// mutation 0.20 that the two-hit filter moved: one gold pdb~genbank pair
// shares two 8-mers, 84 diagonals apart, and is no longer aligned (R
// 0.956 -> 0.944, F1 0.977 -> 0.971).
func TestE7SequenceRows(t *testing.T) {
	tbl, err := E7SequencePR(30)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"0.01", "1.000", "1.000", "1.000", "149", "32", "900"},
		{"0.05", "1.000", "1.000", "1.000", "151", "32", "900"},
		{"0.10", "1.000", "1.000", "1.000", "168", "35", "900"},
		{"0.20", "1.000", "0.944", "0.971", "149", "32", "900"},
		{"0.40", "1.000", "0.500", "0.667", "146", "30", "900"},
	}
	if !reflect.DeepEqual(tbl.Rows, want) {
		t.Errorf("E7 rows (mutation, P, R, F1, seeded-candidates, aligned, all-pairs):\n got  %v\n want %v", tbl.Rows, want)
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

// TestSeqWorkCounts pins the work of sequence-link discovery: the pairs
// seeded (sharing two 8-mers), aligned (scored by Smith-Waterman), the
// cells scoring filled and the hits above the identity threshold, at
// tolerance 0 — on the integrate-linked corpus (24 GenBank loci beside
// 1,200 EMBL entries, as BenchmarkSeqLinks runs it), E7's three sequence
// sources at every mutation rate, and E10's full variant at up to 200
// proteins.
func TestSeqWorkCounts(t *testing.T) {
	var got []string
	record := func(name string, st linkdisc.Stats) {
		got = append(got, fmt.Sprintf("%s %d %d %d %d", name, st.SequenceSeeded, st.SequenceAligned, st.SequenceCells, st.SequenceComparisons))
	}

	embl, genbank := datagen.LinkedSequences(7)
	eng := linkdisc.New(linkdisc.Options{Workers: 1, DisableTextLinks: true, DisableEntityLinks: true})
	if err := eng.AddSource(linkSource(t, embl)); err != nil {
		t.Fatal(err)
	}
	_, _, st, err := eng.DiscoverAgainst(context.Background(), linkSource(t, genbank))
	if err != nil {
		t.Fatal(err)
	}
	record("genbank24-embl1200", st)

	for _, mut := range []float64{0.01, 0.05, 0.10, 0.20, 0.40} {
		corpus := datagen.Generate(datagen.Config{Seed: 5, Proteins: 30, Noise: datagen.Noise{SeqMutation: mut}})
		sys := core.New(core.Options{DisableSearchIndex: true})
		var sum linkdisc.Stats
		for _, name := range []string{"swissprot", "pdb", "genbank"} {
			rep, err := sys.AddSource(corpus.Source(name))
			if err != nil {
				t.Fatal(err)
			}
			sum.SequenceSeeded += rep.LinkStats.SequenceSeeded
			sum.SequenceAligned += rep.LinkStats.SequenceAligned
			sum.SequenceCells += rep.LinkStats.SequenceCells
			sum.SequenceComparisons += rep.LinkStats.SequenceComparisons
		}
		record(fmt.Sprintf("e7-mut%.2f", mut), sum)
	}

	for _, n := range []int{50, 100, 200} {
		rep, _, err := e10Add(n, e10Variants[0])
		if err != nil {
			t.Fatal(err)
		}
		record(fmt.Sprintf("e10-p%d", n), rep.LinkStats)
	}

	want := []string{
		"genbank24-embl1200 3745 82 3151373 24",
		"e7-mut0.01 444 94 3760000 180",
		"e7-mut0.05 458 92 3680000 180",
		"e7-mut0.10 481 101 4040000 180",
		"e7-mut0.20 437 89 3560000 170",
		"e7-mut0.40 428 60 2400000 90",
		"e10-p50 402 60 2400000 100",
		"e10-p100 1478 128 5120000 200",
		"e10-p200 5534 284 11360000 400",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sequence work (corpus, seeded, aligned, cells, hits):\n got  %q\n want %q", got, want)
	}
}

// linkSource profiles db and discovers its structure: a source as link
// discovery takes it.
func linkSource(t *testing.T, db *rel.Database) *linkdisc.Source {
	profs, err := profile.ProfileDatabase(db, profile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := discovery.Analyze(db, profs, discovery.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return &linkdisc.Source{DB: db, Structure: st, Profiles: profs}
}
