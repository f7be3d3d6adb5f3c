package ind

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/profile"
	"repro/internal/rel"
)

// biosqlFragment builds a small BioSQL-like source: bioentry (primary),
// a dependent comment table, and a dictionary table.
func biosqlFragment() *rel.Database {
	db := rel.NewDatabase("biosql")

	bioentry := db.Create("bioentry", rel.TextSchema("bioentry_id", "accession", "name"))
	for i := 1; i <= 20; i++ {
		bioentry.AppendRaw(fmt.Sprintf("%d", i), fmt.Sprintf("P%05d", i), fmt.Sprintf("protein %d", i))
	}

	comment := db.Create("comment", rel.TextSchema("comment_id", "bioentry_id", "text"))
	for i := 1; i <= 40; i++ {
		comment.AppendRaw(fmt.Sprintf("%d", i), fmt.Sprintf("%d", (i%15)+1), fmt.Sprintf("comment body %d about something", i))
	}

	// Dictionary table: terms 1..8 referenced from term_id.
	term := db.Create("term", rel.TextSchema("term_id", "term_name"))
	for i := 1; i <= 8; i++ {
		term.AppendRaw(fmt.Sprintf("%d", i), fmt.Sprintf("keyword-%d", i))
	}
	anno := db.Create("annotation", rel.TextSchema("anno_id", "bioentry_id", "term_id"))
	for i := 1; i <= 30; i++ {
		anno.AppendRaw(fmt.Sprintf("%d", i), fmt.Sprintf("%d", (i%20)+1), fmt.Sprintf("%d", (i%8)+1))
	}
	return db
}

func discover(t *testing.T, db *rel.Database, opts Options) ([]IND, Stats) {
	t.Helper()
	profs, err := profile.ProfileDatabase(db, profile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inds, stats, err := DiscoverContext(context.Background(), db, profs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return inds, stats
}

func hasIND(inds []IND, from, fromCol, to, toCol string) bool {
	for _, d := range inds {
		if d.From.FromRelation == from && d.From.FromColumn == fromCol &&
			d.From.ToRelation == to && d.From.ToColumn == toCol {
			return true
		}
	}
	return false
}

func TestDiscoverFindsForeignKeys(t *testing.T) {
	db := biosqlFragment()
	inds, _ := discover(t, db, Options{})
	if !hasIND(inds, "comment", "bioentry_id", "bioentry", "bioentry_id") {
		t.Errorf("missing comment->bioentry FK; got %v", inds)
	}
	if !hasIND(inds, "annotation", "bioentry_id", "bioentry", "bioentry_id") {
		t.Errorf("missing annotation->bioentry FK")
	}
	if !hasIND(inds, "annotation", "term_id", "term", "term_id") {
		t.Errorf("missing annotation->term FK")
	}
}

func TestDiscoverCardinality(t *testing.T) {
	db := rel.NewDatabase("d")
	a := db.Create("a", rel.TextSchema("k"))
	b := db.Create("b", rel.TextSchema("k2", "other"))
	for i := 0; i < 10; i++ {
		a.AppendRaw(fmt.Sprintf("x%d", i))
		b.AppendRaw(fmt.Sprintf("x%d", i), fmt.Sprintf("o%d", i))
	}
	inds, _ := discover(t, db, Options{})
	found := false
	for _, d := range inds {
		if d.From.FromRelation == "a" && d.From.ToRelation == "b" && d.From.ToColumn == "k2" {
			found = true
			if d.Cardinality != OneToOne {
				t.Errorf("equal sets should give 1:1, got %v", d.Cardinality)
			}
		}
	}
	if !found {
		t.Fatalf("missing a.k -> b.k2: %v", inds)
	}
}

func TestDiscoverProperSubsetIs1N(t *testing.T) {
	db := biosqlFragment()
	inds, _ := discover(t, db, Options{})
	for _, d := range inds {
		if d.From.FromRelation == "comment" && d.From.ToRelation == "bioentry" && d.From.ToColumn == "bioentry_id" {
			if d.Cardinality != OneToN {
				t.Errorf("proper subset should be 1:N, got %v", d.Cardinality)
			}
		}
	}
}

func TestDiscoverDeclaredFKsIncluded(t *testing.T) {
	db := biosqlFragment()
	c := db.Relation("comment")
	c.ForeignKeys = append(c.ForeignKeys, rel.ForeignKey{
		FromRelation: "comment", FromColumn: "bioentry_id",
		ToRelation: "bioentry", ToColumn: "bioentry_id",
	})
	inds, _ := discover(t, db, Options{})
	declaredCount := 0
	dataCount := 0
	for _, d := range inds {
		if d.From.FromRelation == "comment" && d.From.ToRelation == "bioentry" {
			if d.Declared {
				declaredCount++
			} else if d.From.FromColumn == "bioentry_id" && d.From.ToColumn == "bioentry_id" {
				dataCount++
			}
		}
	}
	if declaredCount != 1 {
		t.Errorf("declared FK count = %d", declaredCount)
	}
	if dataCount != 0 {
		t.Errorf("declared FK rediscovered from data %d times", dataCount)
	}
}

func TestDiscoverMinContainment(t *testing.T) {
	db := rel.NewDatabase("d")
	a := db.Create("a", rel.TextSchema("ref"))
	b := db.Create("b", rel.TextSchema("key"))
	for i := 0; i < 10; i++ {
		b.AppendRaw(fmt.Sprintf("k%d", i))
	}
	// 8 of 10 source values resolve; 2 dangle.
	for i := 0; i < 8; i++ {
		a.AppendRaw(fmt.Sprintf("k%d", i))
	}
	a.AppendRaw("dangling1")
	a.AppendRaw("dangling2")
	inds, _ := discover(t, db, Options{})
	if hasIND(inds, "a", "ref", "b", "key") {
		t.Error("inclusion is exact: 80% containment must be rejected")
	}
}

func TestDiscoverSkipsLowDistinctSources(t *testing.T) {
	db := rel.NewDatabase("d")
	a := db.Create("a", rel.TextSchema("flag"))
	b := db.Create("b", rel.TextSchema("key"))
	b.AppendRaw("x")
	b.AppendRaw("y")
	for i := 0; i < 10; i++ {
		a.AppendRaw("x") // single distinct value, contained in b.key
	}
	inds, _ := discover(t, db, Options{})
	if hasIND(inds, "a", "flag", "b", "key") {
		t.Error("single-distinct source should be skipped")
	}
}

// TestDiscoverNumericSourceExclusion: ind excludes no purely numeric
// source, as surrogate-key FK discovery inside one source needs them; the
// §4.4 exclusion across sources is link discovery's pruning.
func TestDiscoverNumericSourceExclusion(t *testing.T) {
	db := rel.NewDatabase("d")
	a := db.Create("a", rel.TextSchema("num"))
	b := db.Create("b", rel.TextSchema("key"))
	for i := 0; i < 10; i++ {
		a.AppendRaw(fmt.Sprintf("%d", i))
		b.AppendRaw(fmt.Sprintf("%d", i))
	}
	inds, _ := discover(t, db, Options{})
	if !hasIND(inds, "a", "num", "b", "key") {
		t.Error("numeric sources must stay sources (intra-source FK discovery)")
	}
}

func TestDictionaryConfusion(t *testing.T) {
	// Two dictionary tables with IDENTICAL value sets 1..5: the paper's
	// §4.2 confusion case. The source attribute must be reported as
	// contained in both.
	db := rel.NewDatabase("d")
	d1 := db.Create("dict1", rel.TextSchema("id", "label"))
	d2 := db.Create("dict2", rel.TextSchema("id", "label"))
	for i := 1; i <= 5; i++ {
		d1.AppendRaw(fmt.Sprintf("%d", i), fmt.Sprintf("one-%d", i))
		d2.AppendRaw(fmt.Sprintf("%d", i), fmt.Sprintf("two-%d", i))
	}
	f := db.Create("fact", rel.TextSchema("fact_id", "dict_ref"))
	for i := 1; i <= 20; i++ {
		f.AppendRaw(fmt.Sprintf("%d", i), fmt.Sprintf("%d", (i%5)+1))
	}
	inds, _ := discover(t, db, Options{})
	targets := map[string]bool{}
	for _, d := range inds {
		if d.From.FromRelation == "fact" && d.From.FromColumn == "dict_ref" {
			targets[d.From.ToRelation] = true
		}
	}
	if !targets["dict1"] || !targets["dict2"] {
		t.Errorf("fact.dict_ref should be contained in both dictionaries; inds=%v", inds)
	}
}

func TestNoConfusionWithDifferentSizes(t *testing.T) {
	// When dictionary sizes differ (the common case, per the paper), the
	// smaller-ranged source is contained only in the right tables.
	db := rel.NewDatabase("d")
	d1 := db.Create("dict1", rel.TextSchema("id"))
	d2 := db.Create("dict2", rel.TextSchema("id"))
	for i := 1; i <= 5; i++ {
		d1.AppendRaw(fmt.Sprintf("%d", i))
	}
	for i := 1; i <= 3; i++ {
		d2.AppendRaw(fmt.Sprintf("%d", i))
	}
	f := db.Create("fact", rel.TextSchema("fact_id", "dict_ref"))
	for i := 0; i < 20; i++ {
		f.AppendRaw(fmt.Sprintf("%d", i+100), fmt.Sprintf("%d", (i%5)+1)) // values 1..5
	}
	inds, _ := discover(t, db, Options{})
	if hasIND(inds, "fact", "dict_ref", "dict2", "id") {
		t.Error("values 1..5 are not contained in dict2 (1..3)")
	}
	if !hasIND(inds, "fact", "dict_ref", "dict1", "id") {
		t.Error("missing correct dictionary FK")
	}
}

// TestDiscoverMatchesOracle: over random small databases (string,
// integer and float values, NULLs, repeats, value sets that nest,
// overlap or coincide), DiscoverContext at workers 1 and 4 returns
// exactly what a brute-force check of every attribute pair returns, in
// the same order: a dependency for every unique target and every source
// with at least minSourceDistinct distinct values whose value set is a
// subset of the target's, 1:1 when the two sets are equal. Odd rounds cap
// the profiles' distinct sets, so checks also scan the relations. The
// distinct-count pre-filter is exact, so no pruning may change the answer.
func TestDiscoverMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for round := 0; round < 300; round++ {
		db := randomDatabase(rng)
		profs, err := profile.ProfileDatabase(db, profile.Options{MaxTrackedDistinct: 3 * (round % 2)})
		if err != nil {
			t.Fatal(err)
		}
		want := oracleINDs(db)
		for _, workers := range []int{1, 4} {
			got, st, err := DiscoverContext(context.Background(), db, profs, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("round %d, workers %d:\n got %v\nwant %v", round, workers, got, want)
			}
			if st.PairsChecked+st.PairsPruned != st.PairsConsidered {
				t.Fatalf("round %d, workers %d: %d checked + %d pruned != %d considered",
					round, workers, st.PairsChecked, st.PairsPruned, st.PairsConsidered)
			}
		}
	}
}

// randomDatabase builds two to four relations of up to eight rows, each
// column drawn from one small universe ("1" and "1.0" are equal values):
// a run of consecutive values (unique, and nested or equal across
// columns), or repeated picks from a prefix, sometimes with NULLs.
func randomDatabase(rng *rand.Rand) *rel.Database {
	universe := []string{"1", "2", "3", "4", "1.0", "2.5", "x", "y", "z", "w"}
	db := rel.NewDatabase("random")
	for r, nr := 0, 2+rng.Intn(3); r < nr; r++ {
		names := []string{"c0", "c1", "c2"}[:1+rng.Intn(3)]
		rows := rng.Intn(9)
		cols := make([][]string, len(names))
		for c := range cols {
			cols[c] = make([]string, rows)
			offset, prefix := rng.Intn(len(universe)-rows+1), 1+rng.Intn(6)
			kind := rng.Intn(3)
			for i := range cols[c] {
				switch {
				case kind == 0:
					cols[c][i] = universe[offset+i]
				case kind == 2 && rng.Intn(5) == 0:
					cols[c][i] = "" // NULL
				default:
					cols[c][i] = universe[rng.Intn(prefix)]
				}
			}
		}
		rr := db.Create(fmt.Sprintf("r%d", r), rel.TextSchema(names...))
		for i := 0; i < rows; i++ {
			fields := make([]string, len(names))
			for c := range names {
				fields[c] = cols[c][i]
			}
			rr.AppendStrings(fields...)
		}
	}
	return db
}

// oracleINDs checks every (source, target) attribute pair of db against
// the paper's rule directly on the tuples.
func oracleINDs(db *rel.Database) []IND {
	type column struct {
		relation, name string
		values         map[string]bool
		unique         bool
	}
	var cols []column
	for _, r := range db.Relations() {
		for i, c := range r.Schema.Columns {
			values, nonNull, nulls := map[string]bool{}, 0, 0
			for _, tup := range r.Tuples {
				if tup[i].IsNull() {
					nulls++
					continue
				}
				nonNull++
				values[tup[i].Key()] = true
			}
			cols = append(cols, column{r.Name, c.Name, values, nulls == 0 && nonNull > 0 && len(values) == nonNull})
		}
	}
	var out []IND
	for s, src := range cols {
		if len(src.values) < minSourceDistinct {
			continue
		}
	targets:
		for g, tgt := range cols {
			if g == s || !tgt.unique {
				continue
			}
			for v := range src.values {
				if !tgt.values[v] {
					continue targets
				}
			}
			d := IND{From: rel.ForeignKey{FromRelation: src.relation, FromColumn: src.name,
				ToRelation: tgt.relation, ToColumn: tgt.name}, Cardinality: OneToN}
			if len(src.values) == len(tgt.values) {
				d.Cardinality = OneToOne
			}
			out = append(out, d)
		}
	}
	return out
}

func TestINDString(t *testing.T) {
	d := IND{
		From:        rel.ForeignKey{FromRelation: "a", FromColumn: "x", ToRelation: "b", ToColumn: "y"},
		Cardinality: OneToN,
	}
	want := "a.x -> b.y [1:N, data]"
	if d.String() != want {
		t.Errorf("String = %q want %q", d.String(), want)
	}
}
