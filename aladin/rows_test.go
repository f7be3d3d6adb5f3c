package aladin

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datagen"
)

// TestQueryRowsBasic: columns, typed Scan, display strings, clean end.
func TestQueryRowsBasic(t *testing.T) {
	db := openWith(t, testCorpus(), "swissprot")
	ctx := context.Background()

	rows, err := db.QueryRows(ctx, `SELECT accession, protein_id FROM swissprot_protein ORDER BY accession LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if got := rows.Columns(); len(got) != 2 || got[0] != "accession" {
		t.Fatalf("Columns = %v", got)
	}
	n := 0
	for rows.Next() {
		var acc string
		var id int64
		if err := rows.Scan(&acc, &id); err != nil {
			t.Fatal(err)
		}
		if acc == "" {
			t.Error("empty accession")
		}
		if cells := rows.RowStrings(); len(cells) != 2 || cells[0] != acc {
			t.Errorf("RowStrings = %v, want first cell %q", cells, acc)
		}
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("got %d rows, want 3", n)
	}

	// Scan arity and unsupported targets are diagnosed.
	rows2, err := db.QueryRows(ctx, `SELECT accession FROM swissprot_protein LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows2.Close()
	if !rows2.Next() {
		t.Fatal("no row")
	}
	var a, b string
	if err := rows2.Scan(&a, &b); err == nil {
		t.Error("Scan with wrong arity succeeded")
	}
	var f struct{}
	if err := rows2.Scan(&f); err == nil {
		t.Error("Scan into unsupported target succeeded")
	}
}

// TestQueryRowsEarlyStop is the acceptance probe: SELECT ... LIMIT 10
// over the 200-protein corpus evaluates only the rows needed.
func TestQueryRowsEarlyStop(t *testing.T) {
	corpus := datagen.Generate(datagen.Config{Seed: 7, Proteins: 200})
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := db.AddSource(ctx, corpus.Source("swissprot")); err != nil {
		t.Fatal(err)
	}

	rows, err := db.QueryRows(ctx, `SELECT accession FROM swissprot_protein LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("got %d rows, want 10", n)
	}
	if rows.Scanned() != 10 {
		t.Errorf("scanned %d of 200 tuples for LIMIT 10, want 10", rows.Scanned())
	}
}

// TestQueryRowsSnapshotAcrossAddSource: a cursor opened before an
// AddSource commit keeps yielding the pre-add snapshot to completion —
// half the rows are read before the commit, half after.
func TestQueryRowsSnapshotAcrossAddSource(t *testing.T) {
	corpus := testCorpus()
	db := openWith(t, corpus, "swissprot")
	ctx := context.Background()

	rows, err := db.QueryRows(ctx, `SELECT accession FROM swissprot_protein ORDER BY accession`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	read := 0
	for read < 8 && rows.Next() {
		read++
	}
	if read != 8 {
		t.Fatalf("read %d rows pre-commit, want 8", read)
	}

	// Commit a second source mid-iteration; the open cursor must not see
	// it, and the new relations must be queryable afterwards.
	if _, err := db.AddSource(ctx, corpus.Source("pdb")); err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
		read++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if read != 16 {
		t.Fatalf("cursor yielded %d rows across the commit, want the pre-add 16", read)
	}
	res, err := db.Query(ctx, `SELECT COUNT(*) FROM pdb_structure`)
	if err != nil {
		t.Fatalf("new source not queryable after commit: %v", err)
	}
	if n, _ := res.Rows[0][0].AsInt(); n == 0 {
		t.Error("pdb_structure empty after commit")
	}
}

// TestQueryRowsHammerDuringAddSource keeps many streaming cursors open
// and iterating (under -race) while an AddSource integrates, asserting
// every cursor sees a complete, consistent pre- or post-add snapshot.
func TestQueryRowsHammerDuringAddSource(t *testing.T) {
	corpus := testCorpus()
	db := openWith(t, corpus, "swissprot", "pdb")
	ctx := context.Background()

	const readers = 8
	done := make(chan struct{})
	errCh := make(chan error, readers)
	var iterations atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rows, err := db.QueryRows(ctx, `SELECT accession FROM swissprot_protein`)
				if err != nil {
					errCh <- err
					return
				}
				n := 0
				for rows.Next() {
					n++
				}
				if err := rows.Err(); err != nil {
					errCh <- err
					return
				}
				rows.Close()
				if n != 16 {
					errCh <- errors.New("cursor saw a partial snapshot")
					return
				}
				iterations.Add(1)
			}
		}()
	}

	// Don't start the write until the hammer is mid-flight: AddSource on
	// this small corpus can finish faster than a single cursor iteration,
	// leaving the two phases disjoint and the race untested.
	for deadline := time.Now().Add(10 * time.Second); iterations.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("hammer performed no complete iterations")
		}
		select {
		case err := <-errCh:
			t.Fatal(err)
		default:
			time.Sleep(time.Millisecond)
		}
	}

	if _, err := db.AddSource(ctx, corpus.Source("pir")); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// TestQueryRowsCancellation: canceling the QueryRows context aborts the
// iteration promptly and surfaces ErrCanceled from Err.
func TestQueryRowsCancellation(t *testing.T) {
	db := openWith(t, testCorpus(), "swissprot", "pdb")

	ctx, cancel := context.WithCancel(context.Background())
	rows, err := db.QueryRows(ctx, `SELECT p.accession FROM swissprot_protein p CROSS JOIN pdb_structure CROSS JOIN swissprot_protein q`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("first Next failed: %v", rows.Err())
	}
	cancel()
	for rows.Next() {
	}
	if err := rows.Err(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Err after cancel = %v, want ErrCanceled", err)
	}

	// An already-canceled context fails at open.
	if _, err := db.QueryRows(ctx, `SELECT 1`); !errors.Is(err, ErrCanceled) {
		t.Fatalf("QueryRows on canceled ctx = %v, want ErrCanceled", err)
	}
}

// TestQueryRejectsNonSelect: the query access mode is read-only; DML and
// DDL are refused with ErrBadQuery instead of mutating the warehouse
// behind the pipeline's back.
func TestQueryRejectsNonSelect(t *testing.T) {
	db := openWith(t, testCorpus(), "swissprot")
	ctx := context.Background()
	for _, q := range []string{
		`INSERT INTO swissprot_protein VALUES (1)`,
		`DELETE FROM swissprot_protein`,
		`DROP TABLE swissprot_protein`,
	} {
		if _, err := db.Query(ctx, q); !errors.Is(err, ErrBadQuery) {
			t.Errorf("Query(%q) err = %v, want ErrBadQuery", q, err)
		}
		if _, err := db.QueryRows(ctx, q); !errors.Is(err, ErrBadQuery) {
			t.Errorf("QueryRows(%q) err = %v, want ErrBadQuery", q, err)
		}
	}
}

// TestPlanCache: plans are cached per SQL text with LRU eviction, reused
// plans stay correct across new commits, and the cache is race-safe.
func TestPlanCache(t *testing.T) {
	corpus := testCorpus()
	db, err := Open(WithOntologySources("go"), WithPlanCache(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := db.AddSource(ctx, corpus.Source("swissprot")); err != nil {
		t.Fatal(err)
	}

	count := func(q string) int64 {
		t.Helper()
		res, err := db.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		n, _ := res.Rows[0][0].AsInt()
		return n
	}
	q1 := `SELECT COUNT(*) FROM swissprot_protein`
	if count(q1) != 16 {
		t.Fatal("wrong count")
	}
	count(`SELECT COUNT(*) FROM swissprot_sequence`)
	count(`SELECT COUNT(*) FROM swissprot_dbref`)
	if got := db.plans.len(); got != 2 {
		t.Errorf("plan cache holds %d plans, want 2 (LRU evicted)", got)
	}

	// A cached plan opened after a new commit sees the new warehouse.
	if count(q1) != 16 {
		t.Fatal("cached plan changed the result")
	}
	if _, err := db.AddSource(ctx, corpus.Source("pdb")); err != nil {
		t.Fatal(err)
	}
	if count(q1) != 16 {
		t.Error("cached plan broken after commit")
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if _, err := db.Query(ctx, q1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if _, err := Open(WithPlanCache(0)); err == nil {
		t.Error("WithPlanCache(0) accepted, want config error")
	}
}
