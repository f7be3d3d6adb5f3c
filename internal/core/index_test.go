package core

import (
	"context"
	"io"
	"testing"

	"repro/internal/datagen"
	"repro/internal/rel"
	"repro/internal/sqlx"
)

// TestQualifiedCloneKeepsDeclaredFKIndexes: warehouse clones are renamed
// to "<source>_<relation>", and EnsureIndexes matches declared FK
// endpoints by relation name — so indexes must be built before the
// rename or declared-FK columns silently lose theirs.
func TestQualifiedCloneKeepsDeclaredFKIndexes(t *testing.T) {
	r := rel.NewRelation("structure", rel.TextSchema("structure_id", "code"))
	r.ForeignKeys = append(r.ForeignKeys, rel.ForeignKey{
		FromRelation: "chain", FromColumn: "structure_id",
		ToRelation: "structure", ToColumn: "structure_id",
	})
	r.Append(rel.Tuple{rel.Int(1), rel.Str("a")})
	q := qualifiedClone(r, "pdb", nil)
	if q.Name != "pdb_structure" {
		t.Fatalf("clone name = %q", q.Name)
	}
	if q.HashIndex("structure_id") == nil {
		t.Error("declared FK endpoint lost its index on the qualified clone")
	}
}

// TestWarehouseIndexedAfterAddSource: PrepareAdd builds hash indexes on
// the discovered accession and FK endpoint columns off-lock, and
// Commit publishes them — so point queries over the warehouse probe
// an index instead of scanning.
func TestWarehouseIndexedAfterAddSource(t *testing.T) {
	corpus := datagen.Generate(datagen.Config{Seed: 3, Proteins: 20})
	sys := New(Options{DisableSearchIndex: true})
	for _, name := range []string{"swissprot", "pdb"} {
		if _, err := sys.AddSource(corpus.Source(name)); err != nil {
			t.Fatal(err)
		}
	}
	db := sys.WarehouseSnapshot()
	protein := db.Relation("swissprot_protein")
	if protein == nil {
		t.Fatal("missing swissprot_protein")
	}
	if protein.HashIndex("accession") == nil {
		t.Error("discovered accession column not indexed")
	}
	if protein.HashIndex("protein_id") == nil {
		t.Error("discovered FK endpoint protein_id not indexed")
	}
	if db.Relation("swissprot_sequence").HashIndex("protein_id") == nil {
		t.Error("FK source column sequence.protein_id not indexed")
	}

	// The source-side relations are indexed too: the warehouse clones
	// copy their indexes.
	srcProtein := corpus.Source("swissprot").Relation("protein")
	if srcProtein.HashIndex("accession") == nil {
		t.Error("source relation accession not indexed")
	}

	// Acceptance probe: pk point query and FK join probe report Scanned
	// proportional to the result size, not the relation size.
	for _, tc := range []struct {
		q          string
		rows       int
		maxScanned int64
	}{
		{`SELECT entry_name FROM swissprot_protein WHERE accession = 'P10002'`, 1, 1},
		{`SELECT p.accession, s.pdb_code
		  FROM swissprot_protein p
		  JOIN pdb_structure s ON s.structure_id = p.protein_id
		  WHERE p.accession = 'P10002'`, 1, 3},
	} {
		plan, err := sqlx.Prepare(db, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := plan.Open(context.Background(), db)
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		for {
			_, err := cur.Next(context.Background())
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			rows++
		}
		if rows != tc.rows {
			t.Errorf("%s: %d rows, want %d", tc.q, rows, tc.rows)
		}
		if cur.Scanned() > tc.maxScanned {
			t.Errorf("%s: scanned %d tuples over a %d-tuple relation, want <= %d",
				tc.q, cur.Scanned(), protein.Cardinality(), tc.maxScanned)
		}
		text, err := plan.Explain(db)
		if err != nil {
			t.Fatal(err)
		}
		if len(text) == 0 {
			t.Error("empty Explain")
		}
	}
}
