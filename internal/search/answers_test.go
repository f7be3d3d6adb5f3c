package search

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/metadata"
)

// vocabulary mixes plain and upper-case words, non-ASCII letters (the
// Kelvin sign and İ change length when lower-cased), invalid UTF-8,
// punctuation, stopwords and accession-shaped words, bare and punctuated.
var vocabulary = []string{
	"hemoglobin", "Hemoglobin", "OXYGEN", "kinase", "the", "of", "a", "x",
	"straße", "Kelvin", "İstanbul", "ǅungla", "bad\xffbyte", "\xc3", "naïve",
	"subunit-alpha", "(HBA1)", "O2.", "P12345", "p12345", "GO:0000001", "GO:0000001.",
	"(GO:0000001)", "PDB:1XYZ", "[Q9XYZ1],", "\"NM_000518\"", "AB-123", "k1c9_mouse",
	"1ABC", "12", "…", "--", ";", "i̇stanbul",
}

func randomText(rng *rand.Rand) string {
	words := make([]string, 1+rng.Intn(8))
	for i := range words {
		words[i] = vocabulary[rng.Intn(len(vocabulary))]
	}
	return strings.Join(words, []string{" ", "  ", "\t", ", "}[rng.Intn(4)])
}

// randomDocs draws n documents over few sources, columns and accessions,
// with texts repeated so that equal scores, within one object and across
// objects, are common.
func randomDocs(rng *rand.Rand, n int) []Document {
	texts := make([]string, 12)
	for i := range texts {
		texts[i] = randomText(rng)
	}
	docs := make([]Document, n)
	for i := range docs {
		src := []string{"uniprot", "pdb", "Omim"}[rng.Intn(3)]
		text := texts[rng.Intn(len(texts))]
		if rng.Intn(3) == 0 {
			text = randomText(rng)
		}
		docs[i] = Document{
			Object:   metadata.ObjectRef{Source: src, Relation: src + "_main", Accession: fmt.Sprintf("A%d", rng.Intn(6))},
			Relation: []string{src + "_main", "feature"}[rng.Intn(2)],
			Column:   []string{"name", "keyword", "Comment"}[rng.Intn(3)],
			Text:     text,
			Primary:  rng.Intn(2) == 0,
		}
	}
	return docs
}

func randomFilter(rng *rand.Rand) Filter {
	var f Filter
	if rng.Intn(3) == 0 {
		f.Sources = []string{[]string{"UNIPROT", "pdb", "omim", "none"}[rng.Intn(4)]}
	}
	if rng.Intn(3) == 0 {
		f.Columns = []string{[]string{"NAME", "keyword", "comment"}[rng.Intn(3)], "name"}[:1+rng.Intn(2)]
	}
	f.PrimaryOnly = rng.Intn(4) == 0
	return f
}

func randomQuery(rng *rand.Rand) string {
	q := randomText(rng)
	switch rng.Intn(4) {
	case 0:
		q += " " + q // every term repeated
	case 1:
		q += " nosuchterm Z99999"
	}
	return q
}

// sameResults fails unless got and want hold the same documents in the
// same order with scores equal bit for bit.
func sameResults(t *testing.T, what string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, oracle %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].Document != want[i].Document || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: result %d is %+v, oracle %+v", what, i, got[i], want[i])
		}
	}
}

// The index answers every query and filter as the map-based oracle does,
// with the same results in the same order and bit-identical scores,
// whether documents are added directly or merged in random batches.
func TestSearchMatchesOracle(t *testing.T) {
	hits, ties := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		docs := randomDocs(rng, 1+rng.Intn(120))
		ix, oracle := NewIndex(), newOracle()
		for i := 0; i < len(docs); {
			j := min(len(docs), i+1+rng.Intn(30))
			if rng.Intn(4) == 0 {
				for _, d := range docs[i:j] {
					ix.Add(d)
					oracle.Add(d)
				}
			} else {
				batch, obatch := NewIndex(), newOracle()
				for _, d := range docs[i:j] {
					batch.Add(d)
					obatch.Add(d)
				}
				ix.Merge(batch)
				oracle.Merge(obatch)
			}
			ix.Merge(NewIndex())
			ix.Merge(nil)
			i = j
		}
		if ix.Len() != len(docs) {
			t.Fatalf("seed %d: Len %d, want %d", seed, ix.Len(), len(docs))
		}
		for k := 0; k < 40; k++ {
			q, f := randomQuery(rng), randomFilter(rng)
			for _, limit := range []int{0, 3} {
				what := fmt.Sprintf("seed %d: Search(%q, %+v, %d)", seed, q, f, limit)
				got, want := ix.Search(q, f, limit), oracle.Search(q, f, limit)
				sameResults(t, what, got, want)
				hits += len(got)
				for i := 1; i < len(got); i++ {
					if got[i].Score == got[i-1].Score {
						ties++
					}
				}
				sameResults(t, what+" grouped", GroupByObject(got), GroupByObject(want))
			}
		}
	}
	// The draw must rank many hits and break many ties, or it checks little.
	if hits < 10000 || ties < 1000 {
		t.Fatalf("%d hits, %d ties: the random draw is too thin", hits, ties)
	}
}

// A punctuated accession query hits the verbatim posting as the bare one
// does: indexing trims the same punctuation before the accession test.
func TestPunctuatedAccessionQuery(t *testing.T) {
	ix := NewIndex()
	ix.Add(doc("go", "GO:0000001", "id", "GO:0000001", true))
	ix.Add(doc("go", "GO:0000002", "id", "GO:0000002", true))
	want := ix.Search("GO:0000001", Filter{}, 0)
	if len(want) == 0 || want[0].Document.Object.Accession != "GO:0000001" {
		t.Fatalf("GO:0000001: %+v", want)
	}
	for _, q := range []string{"GO:0000001.", "(GO:0000001)"} {
		sameResults(t, q, ix.Search(q, Filter{}, 0), want)
	}
}

// Equal calls return equal answers: among one object's equal-scoring
// fields the first indexed is kept, whatever the call.
func TestEqualScoresRankByDocument(t *testing.T) {
	ix := NewIndex()
	for _, col := range []string{"keyword", "name", "comment"} {
		ix.Add(doc("uniprot", "P1", col, "serine kinase", true))
	}
	ix.Add(doc("uniprot", "P2", "name", "tyrosine phosphatase", true))
	for i := 0; i < 200; i++ {
		rs := GroupByObject(ix.Search("kinase", Filter{}, 0))
		if len(rs) != 1 || rs[0].Document.Column != "keyword" {
			t.Fatalf("call %d: %+v, want P1's keyword field", i, rs)
		}
	}
}
