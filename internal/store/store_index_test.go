package store_test

import (
	"context"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/rel"
	"repro/internal/sqlx"
	"repro/internal/store"
)

// TestRestoreRebuildsRelationIndexes: hash indexes are not encoded into
// a segment; RestoreRelation rebuilds the declared-key ones from the
// restored tuples.
func TestRestoreRebuildsRelationIndexes(t *testing.T) {
	r := rel.NewRelation("t", rel.NewSchema(
		rel.Column{Name: "id", Kind: rel.KindInt},
		rel.Column{Name: "v", Kind: rel.KindString},
	))
	r.PrimaryKey = "id"
	r.AppendStrings("1", "a")
	r.AppendStrings("2", "b")
	r.EnsureIndexes()

	restored := store.RestoreRelation(store.SnapshotRelation(r))
	ix := restored.HashIndex("id")
	if ix == nil {
		t.Fatal("restored relation has no primary-key index")
	}
	if positions := ix.Lookup(rel.Int(2)); len(positions) != 1 || positions[0] != 1 {
		t.Fatalf("restored index Lookup(2) = %v", positions)
	}
}

// TestRestoredWarehouseAnswersIndexedPointQuery is the round-trip
// acceptance probe: checkpoint an integrated system, recover it from the
// data directory through core.Recover, and assert a point query on the
// restored warehouse probes an index — Scanned() == 1, not the relation
// cardinality.
func TestRestoredWarehouseAnswersIndexedPointQuery(t *testing.T) {
	corpus := datagen.Generate(datagen.Config{Seed: 5, Proteins: 24})
	opts := core.Options{DisableSearchIndex: true}
	path := t.TempDir()
	dir, err := store.OpenDir(path)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.New(opts)
	sys.AttachDurable(dir)
	for _, name := range []string{"swissprot", "pdb"} {
		if _, err := sys.AddSource(corpus.Source(name)); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := sys.BeginCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.WriteCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	if err := dir.Close(); err != nil {
		t.Fatal(err)
	}
	dir, err = store.OpenDir(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	restored, replayed, err := core.Recover(opts, dir)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 0 {
		t.Fatalf("replayed %d WAL records, want the checkpoint alone", replayed)
	}

	db := restored.WarehouseSnapshot()
	plan, err := sqlx.Prepare(db, `SELECT entry_name FROM swissprot_protein WHERE accession = 'P10003'`)
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
	if rows != 1 {
		t.Fatalf("point query returned %d rows, want 1", rows)
	}
	if cur.Scanned() != 1 {
		t.Errorf("restored warehouse scanned %d tuples for an indexed point query, want 1", cur.Scanned())
	}
}
