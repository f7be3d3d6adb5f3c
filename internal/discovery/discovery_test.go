package discovery

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/profile"
	"repro/internal/rel"
)

// biosqlDB builds the Figure 3 BioSQL fragment the paper's §5 case study
// walks through: BioEntry is the primary relation, `accession` its
// accession-number candidate; taxon_id is non-unique, bioentry_id digits
// only, and name has varying length, so all three are correctly rejected.
func biosqlDB() *rel.Database {
	db := rel.NewDatabase("biosql")

	bioentry := db.Create("bioentry", rel.TextSchema(
		"bioentry_id", "accession", "name", "taxon_id", "description"))
	names := []string{"HBA", "MYG_HUMAN", "INS", "K1C9_MOUSE", "CYC_BOVIN",
		"ALBU", "LYSC_CHICK", "TRY", "CATA_HUMAN", "P53"}
	for i := 0; i < 10; i++ {
		bioentry.AppendRaw(
			fmt.Sprintf("%d", i+1),
			fmt.Sprintf("P%05d", 10000+i),
			names[i],
			fmt.Sprintf("%d", 9606+(i%3)),
			fmt.Sprintf("functional description of protein number %d with several words", i),
		)
	}

	taxon := db.Create("taxon", rel.TextSchema("taxon_id", "scientific_name"))
	for i := 0; i < 3; i++ {
		taxon.AppendRaw(fmt.Sprintf("%d", 9606+i), fmt.Sprintf("Species %d", i))
	}

	biosequence := db.Create("biosequence", rel.TextSchema("bioentry_id", "biosequence_str"))
	for i := 0; i < 10; i++ {
		biosequence.AppendRaw(fmt.Sprintf("%d", i+1), seqFor(i))
	}

	comment := db.Create("comment", rel.TextSchema("comment_id", "bioentry_id", "comment_text"))
	for i := 0; i < 25; i++ {
		comment.AppendRaw(fmt.Sprintf("%d", i+1), fmt.Sprintf("%d", (i%10)+1),
			fmt.Sprintf("curator remark number %d about the entry", i))
	}

	dbref := db.Create("dbref", rel.TextSchema("dbref_id", "bioentry_id", "dbname", "ref_accession"))
	for i := 0; i < 20; i++ {
		dbref.AppendRaw(fmt.Sprintf("%d", i+1), fmt.Sprintf("%d", (i%10)+1),
			"PDB", fmt.Sprintf("1AB%d", i))
	}

	ontologyterm := db.Create("ontologyterm", rel.TextSchema("term_id", "term_name", "term_definition"))
	for i := 0; i < 6; i++ {
		ontologyterm.AppendRaw(fmt.Sprintf("%d", i+1), fmt.Sprintf("GO:000%d100", i),
			fmt.Sprintf("a molecular function involving catalytic activity type %d", i))
	}

	bioentryterm := db.Create("bioentry_term", rel.TextSchema("bioentry_id", "term_id"))
	for i := 0; i < 18; i++ {
		bioentryterm.AppendRaw(fmt.Sprintf("%d", (i%10)+1), fmt.Sprintf("%d", (i%6)+1))
	}
	return db
}

func seqFor(i int) string {
	bases := "ACGT"
	out := make([]byte, 120)
	for j := range out {
		out[j] = bases[(i*7+j*13)%4]
	}
	return string(out)
}

func analyze(t *testing.T, db *rel.Database, opts Options) *Structure {
	t.Helper()
	profs, err := profile.ProfileDatabase(db, profile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Analyze(db, profs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBioSQLPrimaryRelation(t *testing.T) {
	s := analyze(t, biosqlDB(), DefaultOptions())
	if s.Primary != "bioentry" {
		t.Fatalf("primary = %q want bioentry (scores %v, indeg %v)", s.Primary, s.PrimaryScores, s.InDegree)
	}
	if s.PrimaryAccession != "accession" {
		t.Errorf("accession column = %q", s.PrimaryAccession)
	}
}

func TestBioSQLCandidateRejections(t *testing.T) {
	// §5: "The other fields in BioEntry are either non-unique (e.g.
	// taxon_id), have no alphanumeric character (e.g. bioentry_id), or
	// have varying length (e.g. name)."
	db := biosqlDB()
	profs, _ := profile.ProfileDatabase(db, profile.Options{})
	r := db.Relation("bioentry")
	cand, ok := accessionCandidate(r, profs)
	if !ok {
		t.Fatal("no candidate found in bioentry")
	}
	if cand.Column != "accession" {
		t.Errorf("candidate = %q want accession", cand.Column)
	}
	// Verify each named rejection reason on the profiles directly.
	if profs[profile.Key("bioentry", "taxon_id")].Unique {
		t.Error("taxon_id must be non-unique")
	}
	if profs[profile.Key("bioentry", "bioentry_id")].AllValuesHaveNonDigit {
		t.Error("bioentry_id must be digits only")
	}
	if profs[profile.Key("bioentry", "name")].LenSpreadRatio <= 0.20 {
		t.Error("name must have varying length above the 20% threshold")
	}
}

func TestBioSQLInDegree(t *testing.T) {
	s := analyze(t, biosqlDB(), DefaultOptions())
	// bioentry is referenced by biosequence, comment, dbref, bioentry_term
	// (on bioentry_id) — it must have the highest in-degree among
	// candidate tables.
	if s.InDegree["bioentry"] < 3 {
		t.Errorf("bioentry in-degree = %d; want >= 3 (INDs: %v)", s.InDegree["bioentry"], s.INDs)
	}
}

func TestSecondaryPathsReachAllRelations(t *testing.T) {
	s := analyze(t, biosqlDB(), DefaultOptions())
	if len(s.Unreachable) != 0 {
		t.Errorf("unreachable relations: %v (paths: %v)", s.Unreachable, s.Paths)
	}
	// comment must be reachable via one FK edge.
	paths := s.Paths["comment"]
	if len(paths) == 0 {
		t.Fatal("no path to comment")
	}
	if len(paths[0].Steps) != 1 {
		t.Errorf("shortest path to comment has %d steps", len(paths[0].Steps))
	}
}

func TestTransitivePaths(t *testing.T) {
	s := analyze(t, biosqlDB(), DefaultOptions())
	// ontologyterm is two hops away: bioentry <- bioentry_term -> ontologyterm.
	paths := s.Paths["ontologyterm"]
	if len(paths) == 0 {
		t.Fatal("no path to ontologyterm")
	}
	if len(paths[0].Steps) != 2 {
		t.Errorf("shortest path to ontologyterm = %v (len %d, want 2)", paths[0], len(paths[0].Steps))
	}
}

func TestPathString(t *testing.T) {
	s := analyze(t, biosqlDB(), DefaultOptions())
	p := s.Paths["comment"][0]
	if got := p.String(); got != "bioentry -> comment" {
		t.Errorf("Path.String = %q", got)
	}
}

func TestUnreachablePartitionDetected(t *testing.T) {
	db := biosqlDB()
	orphan := db.Create("island", rel.TextSchema("island_id", "stuff"))
	for i := 0; i < 5; i++ {
		orphan.AppendRaw(fmt.Sprintf("zz%d", i+100), fmt.Sprintf("data %d", i))
	}
	s := analyze(t, db, DefaultOptions())
	found := false
	for _, u := range s.Unreachable {
		if u == "island" {
			found = true
		}
	}
	if !found {
		t.Errorf("island should be unreachable; got %v", s.Unreachable)
	}
}

func TestNoPrimaryWhenNoCandidates(t *testing.T) {
	db := rel.NewDatabase("digitsonly")
	r := db.Create("t", rel.TextSchema("id", "n"))
	for i := 0; i < 5; i++ {
		r.AppendRaw(fmt.Sprintf("%d", i), fmt.Sprintf("%d", i*2))
	}
	s := analyze(t, db, DefaultOptions())
	if s.Primary != "" {
		t.Errorf("primary = %q; want none", s.Primary)
	}
}

// TestAccessionRuleAblation: the length rules are what reject
// bioentry.name (the spread, the paper's stated reason, and the minimum
// length): name passes every other rule and is longer on average than
// accession, so without them it would win.
func TestAccessionRuleAblation(t *testing.T) {
	db := biosqlDB()
	profs, _ := profile.ProfileDatabase(db, profile.Options{})
	name, acc := profs[profile.Key("bioentry", "name")], profs[profile.Key("bioentry", "accession")]
	if !name.Unique || !name.AllValuesHaveNonDigit || name.MeanTokens > 1 || name.IsSequenceField() {
		t.Fatalf("name must pass every rule but the length rules: %+v", name)
	}
	if name.MeanLen <= acc.MeanLen {
		t.Errorf("name mean length %.2f, accession %.2f: name must be the longer", name.MeanLen, acc.MeanLen)
	}
	if name.LenSpreadRatio <= accMaxLenSpread || name.MinLen >= accMinLength {
		t.Errorf("name length spread %.2f must exceed %.2f, its shortest value %d be under %d",
			name.LenSpreadRatio, accMaxLenSpread, name.MinLen, accMinLength)
	}
	if cand, ok := accessionCandidate(db.Relation("bioentry"), profs); !ok || cand.Column != "accession" {
		t.Errorf("candidate = %v %v; want accession", cand, ok)
	}
}

func TestMaxPathsCap(t *testing.T) {
	s := analyze(t, biosqlDB(), DefaultOptions())
	for relName, ps := range s.Paths {
		if len(ps) > maxPathsPerRelation {
			t.Errorf("relation %s has %d paths, cap is %d", relName, len(ps), maxPathsPerRelation)
		}
		for _, p := range ps {
			if len(p.Steps) > maxPathLen {
				t.Errorf("relation %s path %v has %d steps, cap is %d", relName, p, len(p.Steps), maxPathLen)
			}
		}
	}
}

func TestStatsPropagated(t *testing.T) {
	s := analyze(t, biosqlDB(), DefaultOptions())
	if s.INDStats.PairsConsidered == 0 {
		t.Error("IND stats should be propagated")
	}
}

func TestReportRendering(t *testing.T) {
	s := analyze(t, biosqlDB(), DefaultOptions())
	rep := s.Report()
	for _, want := range []string{
		"source biosql",
		"primary relation: bioentry (accession column accession)",
		"accession candidates:",
		"guessed foreign keys:",
		"secondary-object paths:",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestReportNoPrimary(t *testing.T) {
	db := rel.NewDatabase("digitsonly")
	r := db.Create("t", rel.TextSchema("id"))
	for i := 0; i < 3; i++ {
		r.AppendRaw(fmt.Sprintf("%d", i))
	}
	s := analyze(t, db, DefaultOptions())
	if !strings.Contains(s.Report(), "no primary relation found") {
		t.Errorf("report = %q", s.Report())
	}
}

// TestRawINDGraphAblation demonstrates why the FK-selection refinements
// exist: the raw §4.2 inclusion dependencies over-connect the graph, as
// surrogate-key ranges nest, which would inflate in-degrees.
func TestRawINDGraphAblation(t *testing.T) {
	s := analyze(t, biosqlDB(), DefaultOptions())
	// The raw graph must be strictly larger (over-connected).
	if len(s.INDs) <= len(s.ForeignKeys) {
		t.Errorf("raw IND graph (%d) should exceed the refined FK graph (%d)",
			len(s.INDs), len(s.ForeignKeys))
	}
	// And the refined graph yields the correct primary.
	if s.Primary != "bioentry" {
		t.Errorf("refined primary = %q", s.Primary)
	}
}
