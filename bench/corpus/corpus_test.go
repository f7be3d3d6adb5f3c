package corpus

import (
	"bytes"
	"testing"
)

// The largest sizes BENCHMARK.json's workloads generate.
const (
	maxFASTA   = 8000
	maxEMBL    = 1500
	maxGenBank = 80
	maxTerms   = 50
)

func generate(seed int64) []*File {
	fasta, _ := FASTA(seed, "seqs", 0, maxFASTA, 120, 50)
	tail, _ := FASTA(seed+1, "tail", 0, maxFASTA, 20, 0)
	embl := EMBL(seed, "swissprot", maxEMBL, maxTerms)
	genbank, _ := GenBank(seed, "genbank", maxGenBank, embl)
	return []*File{fasta, tail, embl, genbank, OBO(seed, "go", maxTerms)}
}

func TestSameSeedSameBytes(t *testing.T) {
	a, b, c := generate(7), generate(7), generate(8)
	for i := range a {
		if !bytes.Equal(a[i].Text, b[i].Text) {
			t.Errorf("%s: two generations from seed 7 differ", a[i].Source)
		}
		if a[i].Format != "obo" && bytes.Equal(a[i].Text, c[i].Text) {
			t.Errorf("%s: seeds 7 and 8 generate the same file", a[i].Source)
		}
	}
}

func TestAccessionsAndTokensUniqueAtFrozenSizes(t *testing.T) {
	for _, f := range generate(3) {
		if len(f.Acc) != len(f.Desc) || len(f.Acc) != len(f.Token) {
			t.Fatalf("%s: %d accessions, %d descriptions, %d tokens", f.Source, len(f.Acc), len(f.Desc), len(f.Token))
		}
		seen := map[string]bool{}
		for i, acc := range f.Acc {
			if seen[acc] || seen[f.Token[i]] || seen[f.Desc[i]] {
				t.Fatalf("%s record %d: accession %q, token %q or description repeats", f.Source, i, acc, f.Token[i])
			}
			seen[acc], seen[f.Token[i]], seen[f.Desc[i]] = true, true, true
			if !bytes.Contains([]byte(f.Desc[i]), []byte(f.Token[i])) {
				t.Fatalf("%s record %d: description %q lacks its token %q", f.Source, i, f.Desc[i], f.Token[i])
			}
		}
	}
}

func TestGoldLinksPointAtGeneratedRecords(t *testing.T) {
	embl := EMBL(5, "swissprot", 200, maxTerms)
	genbank, gold := GenBank(5, "genbank", 40, embl)
	fasta, dups := FASTA(5, "seqs", 0, 500, 120, 50)
	gold = append(append(gold, dups...), TermLinks(embl, "go")...)
	have := map[Ref]bool{}
	for _, f := range []*File{embl, genbank, fasta, OBO(5, "go", maxTerms)} {
		for _, acc := range f.Acc {
			have[Ref{f.Source, acc}] = true
		}
	}
	counts := map[string]int{}
	seen := map[Link]bool{}
	for _, l := range gold {
		if !have[l.A] || !have[l.B] {
			t.Errorf("gold link %v names a record that was not generated", l)
		}
		if l != NewLink(l.Type, l.B, l.A) {
			t.Errorf("gold link %v is not in canonical order", l)
		}
		if seen[l] {
			t.Errorf("gold link %v repeats", l)
		}
		seen[l] = true
		counts[l.Type]++
	}
	// 40 GenBank records: one xref each, a sequence link for every second;
	// 200 entries: one ontology xref each; 500 FASTA records: 9 copies.
	if counts[XRef] != 240 || counts[Sequence] != 20 || counts[Duplicate] != 9 {
		t.Errorf("gold link counts = %v", counts)
	}
}

// A copy of a copy, or two copies of one record, are duplicates of each
// other as well: the gold must not leave such pairs to count as false
// positives.
func TestDuplicateGoldIsTransitive(t *testing.T) {
	_, gold := FASTA(3, "seqs", 0, 300, 60, 2)
	linked := map[Ref]map[Ref]bool{}
	for _, l := range gold {
		for _, p := range [][2]Ref{{l.A, l.B}, {l.B, l.A}} {
			if linked[p[0]] == nil {
				linked[p[0]] = map[Ref]bool{}
			}
			linked[p[0]][p[1]] = true
		}
	}
	if len(gold) <= 149 {
		t.Fatalf("%d gold links for 149 copies: no record was copied twice, pick another seed", len(gold))
	}
	for a, bs := range linked {
		for b := range bs {
			for c := range linked[b] {
				if c != a && !linked[a][c] {
					t.Fatalf("%v~%v and %v~%v are gold, %v~%v is not", a, b, b, c, a, c)
				}
			}
		}
	}
}
