package profile

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rel"
)

func accessionRelation() *rel.Relation {
	r := rel.NewRelation("bioentry", rel.TextSchema("bioentry_id", "accession", "name", "taxon_id", "description"))
	rows := [][]string{
		{"1", "P12345", "HBA_HUMAN", "9606", "Hemoglobin subunit alpha from human blood"},
		{"2", "P67890", "MYG_HUMAN", "9606", "Myoglobin oxygen storage protein"},
		{"3", "Q11111", "INS_MOUSE", "10090", "Insulin regulates glucose"},
		{"4", "Q22222", "K1C9_MOUSE", "10090", "Keratin type I cytoskeletal"},
	}
	for _, row := range rows {
		r.AppendStrings(row...)
	}
	return r
}

func TestProfileUniqueDetection(t *testing.T) {
	r := accessionRelation()
	p, err := ProfileColumn(r, "accession", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Unique {
		t.Error("accession should be unique")
	}
	p, _ = ProfileColumn(r, "taxon_id", Options{})
	if p.Unique {
		t.Error("taxon_id should not be unique")
	}
}

func TestProfileNonDigitDetection(t *testing.T) {
	r := accessionRelation()
	p, _ := ProfileColumn(r, "accession", Options{})
	if !p.AllValuesHaveNonDigit {
		t.Error("accessions all contain non-digits")
	}
	p, _ = ProfileColumn(r, "bioentry_id", Options{})
	if p.AllValuesHaveNonDigit {
		t.Error("surrogate ids are digits only")
	}
	if !p.PurelyNumeric {
		t.Error("surrogate ids are purely numeric")
	}
}

func TestProfileLengthStatistics(t *testing.T) {
	r := accessionRelation()
	p, _ := ProfileColumn(r, "accession", Options{})
	if p.MinLen != 6 || p.MaxLen != 6 {
		t.Errorf("len range = [%d,%d]", p.MinLen, p.MaxLen)
	}
	if p.LenSpreadRatio != 0 {
		t.Errorf("spread = %v", p.LenSpreadRatio)
	}
	p, _ = ProfileColumn(r, "name", Options{})
	if p.LenSpreadRatio <= 0 {
		t.Errorf("name spread should be > 0, got %v", p.LenSpreadRatio)
	}
}

func TestProfileNullHandling(t *testing.T) {
	r := rel.NewRelation("t", rel.TextSchema("a"))
	r.Append(rel.Tuple{rel.Str("x")})
	r.Append(rel.Tuple{rel.Null()})
	r.Append(rel.Tuple{rel.Str("y")})
	p, _ := ProfileColumn(r, "a", Options{})
	if p.Nulls != 1 || p.Rows != 3 || p.Distinct != 2 {
		t.Errorf("nulls=%d rows=%d distinct=%d", p.Nulls, p.Rows, p.Distinct)
	}
	if p.Unique {
		t.Error("column with NULLs must not be unique")
	}
}

func TestProfileEmptyColumn(t *testing.T) {
	r := rel.NewRelation("t", rel.TextSchema("a"))
	p, err := ProfileColumn(r, "a", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Unique || p.Distinct != 0 || p.MinLen != 0 {
		t.Errorf("empty profile = %+v", p)
	}
}

func TestProfileMissingColumn(t *testing.T) {
	r := rel.NewRelation("t", rel.TextSchema("a"))
	if _, err := ProfileColumn(r, "nope", Options{}); err == nil {
		t.Error("expected error")
	}
}

func TestSequenceFieldDetection(t *testing.T) {
	r := rel.NewRelation("seq", rel.TextSchema("dna", "prot", "text"))
	dna := strings.Repeat("ACGT", 50)
	prot := strings.Repeat("MKWVTFISLLFLFSSAYS", 10)
	for i := 0; i < 5; i++ {
		r.AppendRaw(dna, prot, "the quick brown fox jumps over the lazy dog repeatedly")
	}
	pd, _ := ProfileColumn(r, "dna", Options{})
	if !pd.IsSequenceField() {
		t.Errorf("dna field not detected: dnaFrac=%v", pd.DNAAlphabetFrac)
	}
	pp, _ := ProfileColumn(r, "prot", Options{})
	if !pp.IsSequenceField() {
		t.Errorf("protein field not detected: protFrac=%v", pp.ProteinAlphabetFrac)
	}
	pt, _ := ProfileColumn(r, "text", Options{})
	if pt.IsSequenceField() {
		t.Error("free text misdetected as sequence")
	}
	if !pt.IsTextField() {
		t.Errorf("free text not detected: tokens=%v len=%v", pt.MeanTokens, pt.MeanLen)
	}
}

func TestShortValuesNotSequences(t *testing.T) {
	r := rel.NewRelation("t", rel.TextSchema("a"))
	// Short all-DNA-alphabet strings (e.g. "CAT") must not flag.
	r.AppendRaw("CAT")
	r.AppendRaw("ACT")
	p, _ := ProfileColumn(r, "a", Options{})
	if p.IsSequenceField() {
		t.Error("short values should not be sequence fields")
	}
}

func TestSampling(t *testing.T) {
	r := rel.NewRelation("t", rel.TextSchema("a"))
	for i := 0; i < 1000; i++ {
		r.AppendRaw(fmt.Sprintf("v%04d", i))
	}
	p, _ := ProfileColumn(r, "a", Options{SampleEvery: 10})
	if p.Rows != 100 {
		t.Errorf("sampled rows = %d want 100", p.Rows)
	}
	if p.Distinct != 100 {
		t.Errorf("sampled distinct = %d", p.Distinct)
	}
}

func TestMaxTrackedDistinct(t *testing.T) {
	r := rel.NewRelation("t", rel.TextSchema("a"))
	for i := 0; i < 100; i++ {
		r.AppendRaw(fmt.Sprintf("v%d", i))
	}
	p, _ := ProfileColumn(r, "a", Options{MaxTrackedDistinct: 10})
	if p.DistinctValues != nil {
		t.Error("distinct set should be dropped above cap")
	}
	if p.Distinct != 100 {
		t.Errorf("distinct count should stay exact: %d", p.Distinct)
	}
}

func TestProfileRelationAndDatabase(t *testing.T) {
	db := rel.NewDatabase("src")
	db.Put(accessionRelation())
	profs, err := ProfileDatabase(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(profs) != 5 {
		t.Errorf("profiles = %d", len(profs))
	}
	if profs[Key("bioentry", "accession")] == nil {
		t.Error("missing keyed profile")
	}
}

// Property: Unique implies Distinct == Rows - Nulls and Nulls == 0.
func TestUniqueInvariant(t *testing.T) {
	f := func(vals []uint16) bool {
		r := rel.NewRelation("t", rel.TextSchema("a"))
		for _, v := range vals {
			r.AppendRaw(fmt.Sprintf("k%d", v))
		}
		p, err := ProfileColumn(r, "a", Options{})
		if err != nil {
			return false
		}
		if p.Unique {
			return p.Nulls == 0 && p.Distinct == p.Rows && p.Rows > 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
