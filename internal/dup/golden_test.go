package dup

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/discovery"
	"repro/internal/flatfile"
	"repro/internal/profile"
	"repro/internal/rel"
)

// The goldens under testdata/ were written by the scorer this package had
// before records were prepared (commit 29cf0e4): flagged pairs in their
// A/B orientation, similarities to 9 decimals, evidence, and the number
// of comparisons. golden_shortreads.txt, reads of 20-39 bases whose
// sequences are compared by Jaro-Winkler, was written later by the byte
// loop Jaro (commit 03b7978), before its match sets became bit vectors. That scorer summed and tie-broke in Go map order; no
// line of either corpus came out differently in 25 generating runs, so
// every evidence string is untied. -update rewrites the files from the
// code under test; use it only for a deliberate change of the formulas.
var update = flag.Bool("update", false, "rewrite testdata/golden_*.txt from the code under test")

func sourceRecords(t testing.TB, db *rel.Database) []Record {
	t.Helper()
	profs, err := profile.ProfileDatabase(db, profile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := discovery.Analyze(db, profs, discovery.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return RecordsFromSource(db, st)
}

// datagenRecords is the §2 scenario: Swiss-Prot, PIR and PDB describing
// overlapping proteins under different schemas.
func datagenRecords(t testing.TB, proteins int) []Record {
	corpus := datagen.Generate(datagen.Config{Seed: 7, Proteins: proteins})
	var out []Record
	for _, name := range []string{"swissprot", "pir", "pdb"} {
		out = append(out, sourceRecords(t, corpus.Source(name))...)
	}
	return out
}

// fastaRecords is n FASTA records of minLen to 2*minLen-1 bases, every
// dupEvery-th a planted duplicate, parsed and analyzed the way an upload
// is.
func fastaRecords(t testing.TB, n, dupEvery, minLen int) []Record {
	var text bytes.Buffer
	if err := datagen.FastaDupReads(&text, n, dupEvery, minLen, 7); err != nil {
		t.Fatal(err)
	}
	db, err := flatfile.Parse("fasta", &text, "seqs")
	if err != nil {
		t.Fatal(err)
	}
	recs := sourceRecords(t, db)
	if len(recs) != n {
		t.Fatalf("fasta records = %d, want %d", len(recs), n)
	}
	return recs
}

// goldenModes are the four ways the same records reach the scorer.
var goldenModes = []struct {
	name string
	run  func(records []Record, workers int) ([]Match, int)
}{
	{"fd-sn", func(records []Record, workers int) ([]Match, int) {
		ms, st := FindDuplicates(records, Options{Workers: workers})
		return ms, st.Comparisons
	}},
	{"fd-full", func(records []Record, workers int) ([]Match, int) {
		ms, st := FindDuplicates(records, Options{Blocking: FullPairwise, Workers: workers})
		return ms, st.Comparisons
	}},
	{"ix-1", func(records []Record, workers int) ([]Match, int) { return indexInBatches(records, 1, workers) }},
	{"ix-8", func(records []Record, workers int) ([]Match, int) { return indexInBatches(records, 8, workers) }},
}

// indexInBatches feeds the records to one Index in equal contiguous
// batches and returns every batch's matches and the comparison total.
func indexInBatches(records []Record, batches, workers int) ([]Match, int) {
	ix := NewIndex()
	var all []Match
	comparisons := 0
	for b := 0; b < batches; b++ {
		lo, hi := b*len(records)/batches, (b+1)*len(records)/batches
		ms, st := ix.FindNew(records[lo:hi], Options{Workers: workers})
		all = append(all, ms...)
		comparisons += st.Comparisons
	}
	return all, comparisons
}

// goldenLines renders matches one per line, sorted by pair: similarity
// order is not stable to the last ulp across summation orders.
func goldenLines(ms []Match) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = fmt.Sprintf("%s\t%s\t%s\t%s\t%.9f\t%s",
			m.A.Source, m.A.Accession, m.B.Source, m.B.Accession, m.Similarity, m.Evidence)
	}
	sort.Strings(out)
	return out
}

func TestDupGolden(t *testing.T) {
	corpora := []struct {
		name    string
		records []Record
	}{
		{"datagen60", datagenRecords(t, 60)},
		{"fasta1000", fastaRecords(t, 1000, 50, 120)},
		{"shortreads", fastaRecords(t, 1000, 50, 20)},
	}
	for _, c := range corpora {
		path := filepath.Join("testdata", "golden_"+c.name+".txt")
		if *update {
			writeGolden(t, path, c.records)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string][]string{} // "# mode comparisons=N" header included
		mode := ""
		for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			if strings.HasPrefix(line, "# ") {
				mode = strings.Fields(line)[1]
			}
			if line != "" {
				want[mode] = append(want[mode], line)
			}
		}
		for _, m := range goldenModes {
			for _, workers := range []int{1, 2, 4} {
				ms, comparisons := m.run(c.records, workers)
				got := append([]string{fmt.Sprintf("# %s comparisons=%d", m.name, comparisons)}, goldenLines(ms)...)
				diffGolden(t, fmt.Sprintf("%s/%s/workers=%d", c.name, m.name, workers), got, want[m.name])
			}
		}
	}
}

func diffGolden(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d lines, golden has %d (first line %q vs %q)", label, len(got), len(want), got[0], want[0])
		return
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] && bad < 5 {
			bad++
			t.Errorf("%s line %d:\n got  %q\n want %q", label, i, got[i], want[i])
		}
	}
}

func writeGolden(t *testing.T, path string, records []Record) {
	var buf bytes.Buffer
	for _, m := range goldenModes {
		ms, comparisons := m.run(records, 1)
		fmt.Fprintf(&buf, "# %s comparisons=%d\n%s\n", m.name, comparisons, strings.Join(goldenLines(ms), "\n"))
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}
