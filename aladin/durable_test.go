package aladin

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
)

// openDurableWith opens a durable DB on path and integrates the named
// corpus sources.
func openDurableWith(t *testing.T, path string, extra []Option, names ...string) *DB {
	t.Helper()
	corpus := testCorpus()
	opts := append([]Option{WithOntologySources("go"), WithDataDir(path)}, extra...)
	db, err := Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, n := range names {
		if _, err := db.AddSource(ctx, corpus.Source(n)); err != nil {
			t.Fatalf("AddSource(%s): %v", n, err)
		}
	}
	return db
}

func firstAccession(t *testing.T, db *DB) string {
	t.Helper()
	res, err := db.Query(context.Background(), "SELECT accession FROM swissprot_protein ORDER BY accession LIMIT 1")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("accession query: %v (%d rows)", err, len(res.Rows))
	}
	return res.Rows[0][0].AsString()
}

func countProteins(t *testing.T, db *DB) int64 {
	t.Helper()
	res, err := db.Query(context.Background(), "SELECT COUNT(*) FROM swissprot_protein")
	if err != nil {
		t.Fatal(err)
	}
	n, _ := res.Rows[0][0].AsInt()
	return n
}

// TestDurableRecoverOnOpen: a durable database's full mutation history —
// integrations, DML, link feedback — survives close and reopen, with no
// explicit checkpoint ever taken (pure WAL replay).
func TestDurableRecoverOnOpen(t *testing.T) {
	path := t.TempDir()
	ctx := context.Background()
	db := openDurableWith(t, path, nil, "swissprot", "pdb")

	st, err := db.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Durability.Enabled || st.Durability.WALRecords != 2 || st.Durability.Gen != 0 {
		t.Fatalf("durability stats = %+v", st.Durability)
	}

	var victim Link
	for _, ref := range mustObjects(t, db, "pdb")[:4] {
		v, err := db.Browse(ctx, ref)
		if err != nil {
			t.Fatal(err)
		}
		if len(v.Linked) > 0 {
			victim = v.Linked[0]
			break
		}
	}
	if victim.From.Accession != "" {
		if ok, err := db.RemoveLinkFeedback(ctx, victim); err != nil || !ok {
			t.Fatalf("RemoveLinkFeedback: ok=%v err=%v", ok, err)
		}
	}
	// Delete a protein that is not an endpoint of the removed link, so
	// both journaled mutations stay independently checkable after reopen.
	accs, err := db.Query(ctx, "SELECT accession FROM swissprot_protein ORDER BY accession")
	if err != nil {
		t.Fatal(err)
	}
	var acc string
	for _, row := range accs.Rows {
		if a := row[0].AsString(); a != victim.From.Accession && a != victim.To.Accession {
			acc = a
			break
		}
	}
	res, err := db.Exec(ctx, fmt.Sprintf("DELETE FROM swissprot_protein WHERE accession = '%s'", acc))
	if err != nil || res.Affected != 1 {
		t.Fatalf("Exec: affected=%d err=%v", res.Affected, err)
	}
	want, _ := db.Stats(ctx)
	tuples := countProteins(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(WithOntologySources("go"), WithDataDir(path))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, err := re.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Repo.Sources != want.Repo.Sources || got.Repo.Links != want.Repo.Links {
		t.Errorf("recovered repo stats %+v != %+v", got.Repo, want.Repo)
	}
	if n := countProteins(t, re); n != tuples {
		t.Errorf("recovered protein count = %d, want %d", n, tuples)
	}
	if res, err := re.Query(ctx, fmt.Sprintf("SELECT * FROM swissprot_protein WHERE accession = '%s'", acc)); err != nil || len(res.Rows) != 0 {
		t.Errorf("journaled DELETE lost on recovery: %d rows, err=%v", len(res.Rows), err)
	}
	if victim.From.Accession != "" {
		v, err := re.Browse(ctx, victim.From)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range v.Linked {
			if l.From == victim.From && l.To == victim.To && l.Type == victim.Type {
				t.Error("removed link resurrected by recovery")
			}
		}
	}
}

// TestDurableCheckpointEvery: with WithCheckpointEvery(1) every mutation
// triggers an automatic checkpoint, so a reopen replays nothing.
func TestDurableCheckpointEvery(t *testing.T) {
	path := t.TempDir()
	ctx := context.Background()
	db := openDurableWith(t, path, []Option{WithCheckpointEvery(1)}, "swissprot")
	st, err := db.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Durability.Gen == 0 || st.Durability.WALRecords != 0 || st.Durability.DirtySources != 0 {
		t.Errorf("auto-checkpoint did not run: %+v", st.Durability)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(WithOntologySources("go"), WithDataDir(path))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	st, err = re.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Durability.WALRecords != 0 || st.Durability.Sources != 1 {
		t.Errorf("reopen after auto-checkpoint: %+v", st.Durability)
	}
}

// TestDurableExplicitCheckpoint: DB.Checkpoint folds the WAL into
// segments on demand and is a cheap no-op when nothing is dirty.
func TestDurableExplicitCheckpoint(t *testing.T) {
	path := t.TempDir()
	ctx := context.Background()
	db := openDurableWith(t, path, nil, "swissprot", "pdb")
	defer db.Close()
	if err := db.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	st, _ := db.Stats(ctx)
	if st.Durability.Gen != 1 || st.Durability.WALRecords != 0 || st.Durability.Sources != 2 {
		t.Errorf("post-checkpoint stats = %+v", st.Durability)
	}
	if err := db.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if st, _ := db.Stats(ctx); st.Durability.Gen != 2 {
		t.Errorf("second checkpoint gen = %d", st.Durability.Gen)
	}
}

// TestDurableSnapshotImport: the data directory is the only on-disk
// form, so an in-memory image cannot be imported into one — WithSnapshot
// + WithDataDir is refused and the directory is left as it was — while
// WithSnapshot alone still restores the image in memory.
func TestDurableSnapshotImport(t *testing.T) {
	ctx := context.Background()
	src := openWith(t, testCorpus(), "swissprot", "pdb")
	snap, err := src.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := src.Stats(ctx)
	src.Close()

	path := t.TempDir()
	if _, err := Open(WithOntologySources("go"), WithDataDir(path), WithSnapshot(snap)); err == nil ||
		!strings.Contains(err.Error(), "WithSnapshot") {
		t.Errorf("WithSnapshot + WithDataDir = %v, want refusal", err)
	}
	if entries, _ := os.ReadDir(path); len(entries) != 0 {
		t.Errorf("refused Open wrote %d files into the data directory", len(entries))
	}

	re, err := Open(WithOntologySources("go"), WithSnapshot(snap))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	st, _ := re.Stats(ctx)
	if st.Repo.Sources != want.Repo.Sources || st.Repo.Links != want.Repo.Links {
		t.Errorf("restored stats %+v != %+v", st.Repo, want.Repo)
	}
	if st.Durability.Enabled {
		t.Error("in-memory restore reports durability enabled")
	}
}

// TestDurableOptionValidation covers the durability options' error paths
// and that Exec still works (in-memory) without a data directory.
func TestDurableOptionValidation(t *testing.T) {
	if _, err := Open(WithDataDir("")); err == nil {
		t.Error("WithDataDir(\"\") should fail")
	}
	if _, err := Open(WithCheckpointEvery(0)); err == nil {
		t.Error("WithCheckpointEvery(0) should fail")
	}

	db := openWith(t, testCorpus(), "swissprot")
	defer db.Close()
	ctx := context.Background()
	st, _ := db.Stats(ctx)
	if st.Durability.Enabled {
		t.Error("in-memory DB reports durability enabled")
	}
	if err := db.Checkpoint(ctx); err == nil {
		t.Error("Checkpoint without a data directory should fail")
	}
	acc := firstAccession(t, db)
	if res, err := db.Exec(ctx, fmt.Sprintf("DELETE FROM swissprot_protein WHERE accession = '%s'", acc)); err != nil || res.Affected != 1 {
		t.Errorf("in-memory Exec: %v", err)
	}
	if _, err := db.Exec(ctx, "SELECT 1"); err == nil {
		t.Error("Exec(SELECT) should be rejected")
	}
}
