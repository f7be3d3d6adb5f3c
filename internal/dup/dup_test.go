package dup

import (
	"fmt"
	"testing"

	"repro/internal/discovery"
	"repro/internal/metadata"
	"repro/internal/profile"
	"repro/internal/rel"
)

func rec(src, acc string, fields map[string]string) Record {
	return Record{Source: src, Relation: "main", Accession: acc, Fields: fields}
}

// Similarity is one pair's weighted record similarity and evidence under m,
// scored in full.
func (m *Matcher) Similarity(a, b Record) (float64, string) {
	pa, pb := prepare(a, 0), prepare(b, 0)
	pa.resolve(m)
	pb.resolve(m)
	sim, best := score(pa, pb, false)
	return sim, best.evidence()
}

// swissprotPIR builds the paper's §2 example: "largely the same proteins
// used to be stored in Swiss-Prot and PIR" — two sources with different
// field names and slightly different values.
func swissprotPIR() []Record {
	var out []Record
	names := []string{
		"hemoglobin alpha chain", "myoglobin", "insulin precursor",
		"keratin type I", "cytochrome c", "lysozyme C",
		"trypsin", "catalase", "tumor protein p53", "serum albumin",
	}
	organisms := []string{"Homo sapiens", "Mus musculus", "Rattus norvegicus",
		"Bos taurus", "Gallus gallus", "Homo sapiens", "Sus scrofa",
		"Homo sapiens", "Homo sapiens", "Homo sapiens"}
	for i := 0; i < 10; i++ {
		out = append(out, rec("swissprot", fmt.Sprintf("P%05d", i), map[string]string{
			"description": names[i],
			"organism":    organisms[i],
		}))
		// PIR stores the same proteins with different accessions, a
		// differently named description field and small wording drift.
		out = append(out, rec("pir", fmt.Sprintf("PIR%04d", i), map[string]string{
			"protein_name": names[i],
			"species":      organisms[i],
		}))
	}
	// Plus some PIR-only proteins.
	for i := 0; i < 5; i++ {
		out = append(out, rec("pir", fmt.Sprintf("PIRX%03d", i), map[string]string{
			"protein_name": fmt.Sprintf("uncharacterized protein family member %d", i),
			"species":      "Danio rerio",
		}))
	}
	return out
}

// The TestRecordSimilarity tests score with uniform weights: a nil Matcher.
func TestRecordSimilarityIdenticalFields(t *testing.T) {
	a := rec("a", "1", map[string]string{"name": "hemoglobin", "org": "human"})
	b := rec("b", "2", map[string]string{"title": "hemoglobin", "species": "human"})
	sim, ev := (*Matcher)(nil).Similarity(a, b)
	if sim != 1.0 {
		t.Errorf("sim = %v", sim)
	}
	if ev == "" {
		t.Error("missing evidence")
	}
}

func TestRecordSimilarityDisjoint(t *testing.T) {
	a := rec("a", "1", map[string]string{"name": "hemoglobin alpha subunit"})
	b := rec("b", "2", map[string]string{"name": "ribosomal machinery component"})
	sim, _ := (*Matcher)(nil).Similarity(a, b)
	if sim > 0.3 {
		t.Errorf("sim = %v for unrelated records", sim)
	}
}

func TestRecordSimilarityEmptyFields(t *testing.T) {
	a := rec("a", "1", nil)
	b := rec("b", "2", map[string]string{"x": "y"})
	if sim, _ := (*Matcher)(nil).Similarity(a, b); sim != 0 {
		t.Errorf("empty record sim = %v", sim)
	}
}

func TestFindDuplicatesFullPairwise(t *testing.T) {
	records := swissprotPIR()
	matches, stats := FindDuplicates(records, Options{Blocking: FullPairwise, Threshold: 0.7})
	if stats.Comparisons != len(records)*(len(records)-1)/2 {
		t.Errorf("comparisons = %d", stats.Comparisons)
	}
	// All 10 true pairs must be found.
	found := map[string]string{}
	for _, m := range matches {
		a, b := m.A, m.B
		if a.Source == "pir" {
			a, b = b, a
		}
		if a.Source == "swissprot" && b.Source == "pir" {
			found[a.Accession] = b.Accession
		}
	}
	for i := 0; i < 10; i++ {
		sp := fmt.Sprintf("P%05d", i)
		want := fmt.Sprintf("PIR%04d", i)
		if found[sp] != want {
			t.Errorf("duplicate of %s = %q want %q", sp, found[sp], want)
		}
	}
}

func TestFindDuplicatesSortedNeighborhood(t *testing.T) {
	// Unrelated records beside the pairs make the set wider than two
	// windows, so that blocking has pairs to skip.
	records := append(swissprotPIR(), synthRecords("filler", 60)...)
	full, _ := FindDuplicates(records, Options{Blocking: FullPairwise, Threshold: 0.7})
	sn, snStats := FindDuplicates(records, Options{Blocking: SortedNeighborhood, Threshold: 0.7})
	if snStats.Comparisons >= len(records)*(len(records)-1)/2 {
		t.Errorf("blocking did not reduce comparisons: %d", snStats.Comparisons)
	}
	// Identical field values sort adjacently, so recall should be full.
	if len(sn) < len(full) {
		t.Errorf("sorted neighborhood found %d of %d full-pairwise matches", len(sn), len(full))
	}
}

func TestFindDuplicatesNoSelfPairs(t *testing.T) {
	records := []Record{
		rec("a", "1", map[string]string{"x": "same value"}),
		rec("a", "1", map[string]string{"x": "same value"}),
	}
	matches, _ := FindDuplicates(records, Options{Blocking: FullPairwise})
	if len(matches) != 0 {
		t.Errorf("self pair flagged: %v", matches)
	}
}

func TestFindDuplicatesWithinSource(t *testing.T) {
	// Duplicates within one source must also be detected (§3: "duplicate
	// objects within and across different data sources").
	records := []Record{
		rec("a", "1", map[string]string{"name": "alpha globin protein"}),
		rec("a", "2", map[string]string{"name": "alpha globin protein"}),
	}
	matches, _ := FindDuplicates(records, Options{Blocking: FullPairwise, Threshold: 0.9})
	if len(matches) != 1 {
		t.Errorf("within-source duplicate not flagged: %v", matches)
	}
}

func TestThresholdSweepMonotone(t *testing.T) {
	records := swissprotPIR()
	prev := -1
	for _, th := range []float64{0.3, 0.5, 0.7, 0.9} {
		matches, _ := FindDuplicates(records, Options{Blocking: FullPairwise, Threshold: th})
		if prev >= 0 && len(matches) > prev {
			t.Errorf("threshold %v yielded more matches (%d) than lower threshold (%d)", th, len(matches), prev)
		}
		prev = len(matches)
	}
}

func TestLinks(t *testing.T) {
	records := swissprotPIR()
	matches, _ := FindDuplicates(records, Options{Blocking: FullPairwise, Threshold: 0.7})
	links := Links(matches)
	if len(links) != len(matches) {
		t.Fatalf("links = %d matches = %d", len(links), len(matches))
	}
	for _, l := range links {
		if l.Type != metadata.LinkDuplicate {
			t.Errorf("type = %v", l.Type)
		}
		if l.Confidence <= 0 {
			t.Errorf("confidence = %v", l.Confidence)
		}
	}
}

func TestCluster(t *testing.T) {
	// a1 ~ b1 ~ c1 chain must form one cluster; d1-e1 another.
	m := func(s1, a1, s2, a2 string) Match {
		return Match{
			A: rec(s1, a1, map[string]string{"x": "v"}),
			B: rec(s2, a2, map[string]string{"x": "v"}),
		}
	}
	clusters := Cluster([]Match{
		m("a", "1", "b", "1"),
		m("b", "1", "c", "1"),
		m("d", "1", "e", "1"),
	})
	if len(clusters) != 2 {
		t.Fatalf("clusters = %v", clusters)
	}
	sizes := []int{len(clusters[0]), len(clusters[1])}
	if !(sizes[0] == 3 && sizes[1] == 2 || sizes[0] == 2 && sizes[1] == 3) {
		t.Errorf("cluster sizes = %v", sizes)
	}
}

func TestConflicts(t *testing.T) {
	mA := rec("pdb", "1ABC", map[string]string{"resolution": "1.8 angstrom resolution value", "method": "xray"})
	mB := rec("msd", "1ABC", map[string]string{"res": "2.0 angstrom resolution value", "method": "xray"})
	match := Match{A: mA, B: mB}
	cs := Conflicts(match)
	if len(cs) != 1 {
		t.Fatalf("conflicts = %v", cs)
	}
	if cs[0].FieldA != "resolution" || cs[0].FieldB != "res" {
		t.Errorf("conflict fields = %v", cs[0])
	}
	if cs[0].ValueA == cs[0].ValueB {
		t.Error("conflict values must differ")
	}
}

func TestConflictsNoneWhenIdentical(t *testing.T) {
	a := rec("a", "1", map[string]string{"x": "same"})
	b := rec("b", "2", map[string]string{"y": "same"})
	if cs := Conflicts(Match{A: a, B: b}); len(cs) != 0 {
		t.Errorf("conflicts = %v", cs)
	}
}

func TestRecordsFromSource(t *testing.T) {
	db := rel.NewDatabase("src")
	main := db.Create("entry", rel.TextSchema("entry_id", "acc", "label"))
	for i := 0; i < 5; i++ {
		main.AppendRaw(fmt.Sprintf("%d", i+1), fmt.Sprintf("AC%04d", i), fmt.Sprintf("protein %d label", i))
	}
	profs, err := profile.ProfileDatabase(db, profile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := discovery.Analyze(db, profs, discovery.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.Primary != "entry" {
		t.Fatalf("primary = %q", st.Primary)
	}
	recs := RecordsFromSource(db, st)
	if len(recs) != 5 {
		t.Fatalf("records = %d", len(recs))
	}
	r := recs[0]
	if r.Accession != "AC0000" {
		t.Errorf("accession = %q", r.Accession)
	}
	if _, hasID := r.Fields["entry_id"]; hasID {
		t.Error("surrogate key should be excluded from fields")
	}
	if r.Fields["label"] != "protein 0 label" {
		t.Errorf("fields = %v", r.Fields)
	}
}

func TestRecordsFromSourceNilStructure(t *testing.T) {
	db := rel.NewDatabase("x")
	if recs := RecordsFromSource(db, nil); recs != nil {
		t.Errorf("recs = %v", recs)
	}
	if recs := RecordsFromSource(db, &discovery.Structure{}); recs != nil {
		t.Errorf("recs = %v", recs)
	}
}

func TestPDBThreeFlavors(t *testing.T) {
	// §5: the same PDB structures exist in three differently cleansed
	// versions; "detecting duplicate objects is easy in this case, because
	// the original PDB accession number is available in all three".
	var records []Record
	proteins := []string{"hemoglobin", "myoglobin", "insulin", "keratin",
		"cytochrome", "lysozyme", "trypsin", "catalase"}
	for i := 0; i < 8; i++ {
		code := fmt.Sprintf("%dAB%d", i+1, i)
		records = append(records,
			rec("pdb", code, map[string]string{"pdb_code": code, "title": fmt.Sprintf("crystal structure of %s", proteins[i])}),
			rec("openmms", code, map[string]string{"code": code, "name": fmt.Sprintf("%s structure cleaned coordinates", proteins[i])}),
			rec("msd", code, map[string]string{"entry_code": code, "description": fmt.Sprintf("cleansed structure of %s entry", proteins[i])}),
		)
	}
	matches, _ := FindDuplicates(records, Options{Blocking: FullPairwise, Threshold: 0.6})
	clusters := Cluster(matches)
	if len(clusters) != 8 {
		t.Fatalf("clusters = %d want 8", len(clusters))
	}
	for _, c := range clusters {
		if len(c) != 3 {
			t.Errorf("cluster size = %d want 3 (three flavors): %v", len(c), c)
		}
	}
}
