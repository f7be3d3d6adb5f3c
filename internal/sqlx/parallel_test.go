package sqlx

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/rel"
)

// parallelDB builds a fact table spanning several morsels plus a small
// dimension table, so eligible chains actually split into parallel
// morsels (len > morselSize).
func parallelDB(t testing.TB) *rel.Database {
	db := rel.NewDatabase("test")
	fact := db.Create("fact", rel.NewSchema(
		intCol("id"), intCol("grp"), intCol("dim_id"),
		rel.Column{Name: "note", Kind: rel.KindString}))
	dim := db.Create("dim", rel.NewSchema(intCol("id"),
		rel.Column{Name: "name", Kind: rel.KindString}))
	for i := 0; i < 50; i++ {
		dim.Append(rel.Tuple{rel.Int(int64(i)), rel.Str(fmt.Sprintf("dim %d", i))})
	}
	for i := 0; i < 3*morselSize+17; i++ {
		note := rel.Str(fmt.Sprintf("n%d", i%13))
		if i%97 == 0 {
			note = rel.Null()
		}
		fact.Append(rel.Tuple{rel.Int(int64(i)), rel.Int(int64(i % 7)), rel.Int(int64(i % 50)), note})
	}
	return db
}

// rowsFor executes q with the given parallelism and returns every row
// rendered to a comparable string, plus the scanned-tuple count.
func rowsFor(t testing.TB, db *rel.Database, q string, workers int) ([]string, int64) {
	t.Helper()
	_, rows, scanned := goldenRun(t, db, q, workers)
	return rows, scanned
}

// TestParallelMatchesSerial: every operator combination returns
// bit-identical rows, in identical order, at any parallelism degree.
func TestParallelMatchesSerial(t *testing.T) {
	db := parallelDB(t)
	queries := []string{
		// scan + filter + projection
		`SELECT id, note FROM fact WHERE grp = 3`,
		// expression filters across morsel boundaries
		`SELECT id FROM fact WHERE id >= 1000 AND id < 1100`,
		// aggregation
		`SELECT grp, COUNT(*), SUM(id) FROM fact GROUP BY grp ORDER BY grp`,
		`SELECT COUNT(*) FROM fact WHERE note IS NULL`,
		// distinct + sort
		`SELECT DISTINCT note FROM fact ORDER BY note`,
		// sort + limit + offset
		`SELECT id FROM fact ORDER BY note, id DESC LIMIT 40 OFFSET 5`,
		// limit without sort: early termination must keep morsel order
		`SELECT id FROM fact WHERE grp = 1 LIMIT 10`,
		// hash join (build=right: left side is the big scan)
		`SELECT f.id, d.name FROM fact f JOIN dim d ON f.dim_id = d.id WHERE d.id < 10`,
		// left join with null extension
		`SELECT f.id, d.name FROM fact f LEFT JOIN dim d ON f.dim_id = d.id WHERE f.grp = 2`,
		// nested loop join on a non-equi predicate
		`SELECT f.id, d.id FROM fact f JOIN dim d ON f.grp > d.id WHERE f.id < 1100`,
		// cross join with a filtered right side
		`SELECT COUNT(*) FROM fact CROSS JOIN dim WHERE dim.id < 2`,
		// union of two parallel branches
		`SELECT id FROM fact WHERE grp = 1 UNION ALL SELECT id FROM fact WHERE grp = 2`,
		`SELECT grp FROM fact WHERE id < 2000 UNION SELECT id FROM dim ORDER BY grp LIMIT 20`,
		// scalar subquery feeding every morsel
		`SELECT id FROM fact WHERE dim_id IN (SELECT id FROM dim WHERE id < 5) AND grp = 0`,
	}
	for _, q := range queries {
		serial, _ := rowsFor(t, db, q, 1)
		for _, workers := range []int{2, 4, 7} {
			got, _ := rowsFor(t, db, q, workers)
			if len(got) != len(serial) {
				t.Errorf("%s: workers=%d returned %d rows, serial %d", q, workers, len(got), len(serial))
				continue
			}
			for i := range got {
				if got[i] != serial[i] {
					t.Errorf("%s: workers=%d row %d = %q, serial %q", q, workers, i, got[i], serial[i])
					break
				}
			}
		}
	}
}

// TestParallelScannedMatchesSerial: a full drain reads every input
// tuple exactly once regardless of parallelism. (Under LIMIT the counts
// legitimately differ — parallel morsels overrun the cutoff.)
func TestParallelScannedMatchesSerial(t *testing.T) {
	db := parallelDB(t)
	q := `SELECT grp, COUNT(*) FROM fact GROUP BY grp`
	_, serial := rowsFor(t, db, q, 1)
	_, par := rowsFor(t, db, q, 4)
	if serial != par {
		t.Errorf("scanned: serial %d vs parallel %d", serial, par)
	}
}

// TestParallelCursorClose: closing a parallel cursor mid-result stops
// the producer promptly; the goroutines exit via the canceled context
// (the race detector would flag leaked writers touching freed slots).
func TestParallelCursorClose(t *testing.T) {
	db := parallelDB(t)
	plan, err := Prepare(db, `SELECT id, note FROM fact`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		c, err := plan.OpenParallel(context.Background(), db, 4)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3; k++ {
			if _, err := c.Next(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		c.Close()
	}
}

// TestParallelCancellation: canceling the context aborts a parallel
// query with the context's error.
func TestParallelCancellation(t *testing.T) {
	db := parallelDB(t)
	plan, err := Prepare(db, `SELECT f.id FROM fact f JOIN dim d ON f.dim_id = d.id`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	c, err := plan.OpenParallel(ctx, db, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Next(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	for {
		_, err := c.Next(ctx)
		if err == nil {
			continue
		}
		if err == io.EOF {
			t.Fatal("canceled query drained to EOF")
		}
		break
	}
}

// TestExplainAnalyzeSerial: EXPLAIN ANALYZE annotates operators with
// actual rows and reports the execution summary; no Gather appears in a
// serial run.
func TestExplainAnalyzeSerial(t *testing.T) {
	db := parallelDB(t)
	plan, err := Prepare(db, `SELECT grp, COUNT(*) FROM fact WHERE dim_id = 3 GROUP BY grp`)
	if err != nil {
		t.Fatal(err)
	}
	text, err := plan.ExplainAnalyze(context.Background(), db, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"actual=", "time=", "Execution:", "tuples scanned"} {
		if !strings.Contains(text, want) {
			t.Errorf("serial EXPLAIN ANALYZE missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "Gather(") {
		t.Errorf("serial run must not show a Gather exchange:\n%s", text)
	}
}

// TestExplainAnalyzeParallel: with workers the eligible chain runs as
// morsels and the plan shows the Gather exchange with its actual rows.
func TestExplainAnalyzeParallel(t *testing.T) {
	db := parallelDB(t)
	plan, err := Prepare(db, `SELECT f.id, d.name FROM fact f JOIN dim d ON f.dim_id = d.id WHERE f.grp = 4`)
	if err != nil {
		t.Fatal(err)
	}
	text, err := plan.ExplainAnalyze(context.Background(), db, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "Gather(workers=4, morsels=4)") {
		t.Errorf("parallel EXPLAIN ANALYZE missing Gather exchange:\n%s", text)
	}
	// The join's actual row count is exact even across morsel workers.
	matches := 0
	for i := 0; i < 3*morselSize+17; i++ {
		if i%7 == 4 {
			matches++
		}
	}
	want := fmt.Sprintf("actual=%d", matches)
	if !strings.Contains(text, want) {
		t.Errorf("EXPLAIN ANALYZE missing %s:\n%s", want, text)
	}
}
