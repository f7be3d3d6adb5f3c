package datagen

import (
	"fmt"
	"strings"
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Seed: 42, Proteins: 20})
	b := Generate(Config{Seed: 42, Proteins: 20})
	if len(a.Sources) != len(b.Sources) {
		t.Fatal("source count differs")
	}
	for i := range a.Sources {
		ra := a.Sources[i].Relations()
		rb := b.Sources[i].Relations()
		if len(ra) != len(rb) {
			t.Fatalf("source %s relation count differs", a.Sources[i].Name)
		}
		for j := range ra {
			if ra[j].Cardinality() != rb[j].Cardinality() {
				t.Errorf("%s.%s cardinality differs", a.Sources[i].Name, ra[j].Name)
			}
			for ti := range ra[j].Tuples {
				for ci := range ra[j].Tuples[ti] {
					if ra[j].Tuples[ti][ci].AsString() != rb[j].Tuples[ti][ci].AsString() {
						t.Fatalf("%s.%s tuple %d differs", a.Sources[i].Name, ra[j].Name, ti)
					}
				}
			}
		}
	}
}

func TestGenerateSixSources(t *testing.T) {
	c := Generate(Config{Seed: 1, Proteins: 10})
	want := []string{"swissprot", "pdb", "pir", "go", "omim", "genbank"}
	if len(c.Sources) != len(want) {
		t.Fatalf("sources = %d", len(c.Sources))
	}
	for _, name := range want {
		if c.Source(name) == nil {
			t.Errorf("missing source %q", name)
		}
		if c.Gold.Primary[name] == "" || c.Gold.Accession[name] == "" {
			t.Errorf("missing gold primary/accession for %q", name)
		}
	}
	if c.Source("nope") != nil {
		t.Error("unknown source should be nil")
	}
}

func TestGoldStandardShape(t *testing.T) {
	c := Generate(Config{Seed: 1, Proteins: 30})
	// No noise: every protein yields a PDB xref and homolog pair.
	if len(c.Gold.XRefs) < 30 {
		t.Errorf("xrefs = %d", len(c.Gold.XRefs))
	}
	// Homologs: swissprot-pdb, genbank-swissprot, genbank-pdb (transitive).
	if len(c.Gold.Homologs) != 90 {
		t.Errorf("homologs = %d", len(c.Gold.Homologs))
	}
	if len(c.Gold.Duplicates) != 18 { // 30 * 0.6 overlap
		t.Errorf("duplicates = %d", len(c.Gold.Duplicates))
	}
	if len(c.Gold.EntityLinks) != 10 { // one per third protein
		t.Errorf("entity links = %d", len(c.Gold.EntityLinks))
	}
}

func TestNoiseMissingXRefsShrinkGold(t *testing.T) {
	clean := Generate(Config{Seed: 7, Proteins: 40})
	noisy := Generate(Config{Seed: 7, Proteins: 40, Noise: Noise{XRefMissing: 0.5}})
	if len(noisy.Gold.XRefs) >= len(clean.Gold.XRefs) {
		t.Errorf("missing-xref noise should shrink gold xrefs: %d vs %d",
			len(noisy.Gold.XRefs), len(clean.Gold.XRefs))
	}
	// Dropped xrefs must also be absent from the data (count dbref rows).
	cr := clean.Source("swissprot").Relation("dbref").Cardinality()
	nr := noisy.Source("swissprot").Relation("dbref").Cardinality()
	if nr >= cr {
		t.Errorf("noisy dbref rows = %d, clean = %d", nr, cr)
	}
}

func TestNoiseCorruptionKeepsRowsButShrinksGold(t *testing.T) {
	clean := Generate(Config{Seed: 7, Proteins: 40})
	noisy := Generate(Config{Seed: 7, Proteins: 40, Noise: Noise{XRefCorruption: 0.5}})
	if len(noisy.Gold.XRefs) >= len(clean.Gold.XRefs) {
		t.Error("corruption should shrink gold xrefs")
	}
	// Corrupted rows remain in the data as dangling references.
	cr := clean.Source("swissprot").Relation("dbref").Cardinality()
	nr := noisy.Source("swissprot").Relation("dbref").Cardinality()
	if nr != cr {
		t.Errorf("corruption should keep row count: %d vs %d", nr, cr)
	}
}

func TestEqualDictionariesKnob(t *testing.T) {
	c := Generate(Config{Seed: 3, Proteins: 10, Noise: Noise{EqualDictionaries: true}})
	sp := c.Source("swissprot")
	d1, d2 := sp.Relation("dict_method"), sp.Relation("dict_status")
	if d1 == nil || d2 == nil {
		t.Fatal("dictionary tables missing")
	}
	if d1.Cardinality() != d2.Cardinality() {
		t.Errorf("dictionaries must have equal cardinality: %d vs %d",
			d1.Cardinality(), d2.Cardinality())
	}
}

func TestCompositeXRefEncoding(t *testing.T) {
	c := Generate(Config{Seed: 5, Proteins: 40, CompositeXRefFrac: 1.0})
	sp := c.Source("swissprot")
	dbref := sp.Relation("dbref")
	composite := 0
	for _, tu := range dbref.Tuples {
		v := tu[dbref.Schema.Index("ref_value")].AsString()
		if strings.Contains(v, ":") && strings.HasPrefix(v, "PDB:") {
			composite++
		}
	}
	if composite == 0 {
		t.Error("no composite-encoded xrefs at frac=1.0")
	}
}

func TestAccessionViolationKnob(t *testing.T) {
	c := Generate(Config{Seed: 5, Proteins: 50, Noise: Noise{AccessionViolation: 0.5}})
	sp := c.Source("swissprot")
	p := sp.Relation("protein")
	bad := 0
	for _, tu := range p.Tuples {
		acc := tu[p.Schema.Index("accession")].AsString()
		if len(acc) < 4 || !strings.ContainsAny(acc, "ABCDEFGHIJKLMNOPQRSTUVWXYZ") {
			bad++
		}
	}
	if bad < 10 {
		t.Errorf("accession violations = %d; want roughly half of 50", bad)
	}
}

func TestSequencesAreDNA(t *testing.T) {
	c := Generate(Config{Seed: 9, Proteins: 5, SeqLen: 100})
	sp := c.Source("swissprot")
	sr := sp.Relation("sequence")
	for _, tu := range sr.Tuples {
		s := tu[sr.Schema.Index("seq")].AsString()
		if len(s) != 100 {
			t.Errorf("seq len = %d", len(s))
		}
		for _, r := range s {
			if !strings.ContainsRune("ACGT", r) {
				t.Fatalf("non-DNA char %q", r)
			}
		}
	}
}

// TestPDBCodesUnique: pdbCode never repeats (the pdb source's accession
// must stay unique at any corpus size, or discovery finds no primary
// relation), and the first 360 codes keep their historical values.
func TestPDBCodesUnique(t *testing.T) {
	const letters = "ABCDEFGHJKLMNPQRSTUVWXYZ"
	seen := make(map[string]int)
	for i := 0; i < 5000; i++ {
		code := pdbCode(i)
		if j, dup := seen[code]; dup {
			t.Fatalf("pdbCode(%d) = pdbCode(%d) = %q", i, j, code)
		}
		seen[code] = i
		if len(code) != 4 || code[0] < '1' || code[0] > '9' {
			t.Errorf("pdbCode(%d) = %q, want a digit 1-9 plus three characters", i, code)
		}
		if i < 360 {
			want := fmt.Sprintf("%d%c%c%d", 1+i%9, letters[i%24], letters[(i/3)%24], i%10)
			if code != want {
				t.Errorf("pdbCode(%d) = %q, historical value %q", i, code, want)
			}
		}
	}
}
