package sqlx

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/rel"
)

// iterDB builds two 100-row tables for streaming tests.
func iterDB(t *testing.T) *rel.Database {
	t.Helper()
	db := rel.NewDatabase("test")
	for _, name := range []string{"a", "b"} {
		mustExec(t, db, fmt.Sprintf(`CREATE TABLE %s (id INTEGER, tag TEXT)`, name))
		var values []string
		for i := 0; i < 100; i++ {
			values = append(values, fmt.Sprintf("(%d, '%s%d')", i, name, i))
		}
		mustExec(t, db, fmt.Sprintf(`INSERT INTO %s VALUES %s`, name, strings.Join(values, ", ")))
	}
	return db
}

// drain pulls every row from a cursor, copying each: a row is valid only
// until the next Next.
func drain(t *testing.T, c *Cursor) []rel.Tuple {
	t.Helper()
	var rows []rel.Tuple
	for {
		row, err := c.Next(context.Background())
		if err == io.EOF {
			return rows
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		rows = append(rows, row.Clone())
	}
}

// rowKey renders a row canonically for comparison: each value's Key,
// length-prefixed.
func rowKey(row rel.Tuple) string {
	var b strings.Builder
	for _, v := range row {
		k := v.Key()
		b.WriteString(strconv.Itoa(len(k)) + ":" + k)
	}
	return b.String()
}

func mustOpen(t *testing.T, db *rel.Database, sql string) *Cursor {
	t.Helper()
	p, err := Prepare(db, sql)
	if err != nil {
		t.Fatalf("Prepare(%q): %v", sql, err)
	}
	c, err := p.Open(context.Background(), db)
	if err != nil {
		t.Fatalf("Open(%q): %v", sql, err)
	}
	return c
}

// TestCursorEarlyStopLimit: a LIMIT query pulls exactly as many stored
// tuples as it emits — the streaming executor's core property.
func TestCursorEarlyStopLimit(t *testing.T) {
	db := iterDB(t)
	c := mustOpen(t, db, `SELECT id FROM a LIMIT 7`)
	rows := drain(t, c)
	if len(rows) != 7 {
		t.Fatalf("got %d rows, want 7", len(rows))
	}
	if c.Scanned() != 7 {
		t.Errorf("scanned %d tuples for LIMIT 7, want 7", c.Scanned())
	}
}

// TestCursorEarlyStopFilteredLimit: with a selective WHERE, the scan
// stops as soon as enough rows pass the filter.
func TestCursorEarlyStopFilteredLimit(t *testing.T) {
	db := iterDB(t)
	c := mustOpen(t, db, `SELECT id FROM a WHERE id % 2 = 0 LIMIT 3`)
	rows := drain(t, c)
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	// ids 0, 2, 4 pass after scanning tuples 0..4.
	if c.Scanned() != 5 {
		t.Errorf("scanned %d tuples, want 5", c.Scanned())
	}
}

// TestCursorEarlyStopUnion: a LIMIT satisfied by the first UNION ALL
// branch never touches the later branches.
func TestCursorEarlyStopUnion(t *testing.T) {
	db := iterDB(t)
	c := mustOpen(t, db, `SELECT id FROM a UNION ALL SELECT id FROM b LIMIT 5`)
	rows := drain(t, c)
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	if c.Scanned() != 5 {
		t.Errorf("scanned %d tuples, want 5 (branch b must stay unread)", c.Scanned())
	}

	// Spilling into the second branch reads just enough of it.
	c = mustOpen(t, db, `SELECT id FROM a UNION ALL SELECT id FROM b LIMIT 103`)
	rows = drain(t, c)
	if len(rows) != 103 {
		t.Fatalf("got %d rows, want 103", len(rows))
	}
	if c.Scanned() != 103 {
		t.Errorf("scanned %d tuples, want 103", c.Scanned())
	}
}

// TestCursorOrderByLimit: ORDER BY is a pipeline breaker — the full
// input is read on the first pull — but LIMIT still bounds what is
// emitted, and results match the materialized executor.
func TestCursorOrderByLimit(t *testing.T) {
	db := iterDB(t)
	c := mustOpen(t, db, `SELECT id FROM a UNION ALL SELECT id FROM b ORDER BY id DESC LIMIT 4`)
	rows := drain(t, c)
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	for i, want := range []int64{99, 99, 98, 98} {
		if got, _ := rows[i][0].AsInt(); got != want {
			t.Errorf("row %d = %v, want %d", i, rows[i][0], want)
		}
	}
	if c.Scanned() != 200 {
		t.Errorf("scanned %d tuples, want 200 (ORDER BY must drain its input)", c.Scanned())
	}
}

// TestCursorMatchesExec: the streaming cursor and the collect-all Exec
// agree on a query exercising join, grouping, ordering, and union.
func TestCursorMatchesExec(t *testing.T) {
	db := iterDB(t)
	queries := []string{
		`SELECT a.id, b.tag FROM a JOIN b ON b.id = a.id WHERE a.id < 10 ORDER BY a.id`,
		`SELECT COUNT(*), MAX(id) FROM a WHERE id >= 50`,
		`SELECT tag FROM a WHERE id < 3 UNION SELECT tag FROM b WHERE id < 3 ORDER BY tag`,
		`SELECT DISTINCT id % 10 AS d FROM a ORDER BY d LIMIT 4 OFFSET 2`,
		`SELECT id FROM a WHERE id IN (SELECT id FROM b WHERE id < 5)`,
	}
	for _, q := range queries {
		want := mustExec(t, db, q)
		c := mustOpen(t, db, q)
		rows := drain(t, c)
		if len(rows) != len(want.Rows) {
			t.Fatalf("%s: cursor %d rows, Exec %d", q, len(rows), len(want.Rows))
		}
		for i := range rows {
			if rowKey(rows[i]) != rowKey(want.Rows[i]) {
				t.Errorf("%s: row %d = %v, want %v", q, i, rows[i], want.Rows[i])
			}
		}
	}
}

// TestCursorCancellation: a canceled context aborts an in-flight scan
// within one batch of stored-tuple reads.
func TestCursorCancellation(t *testing.T) {
	db := iterDB(t)
	p, err := Prepare(db, `SELECT a.id FROM a CROSS JOIN b`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	c, err := p.Open(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Next(ctx); err != nil {
		t.Fatalf("first Next: %v", err)
	}
	cancel()
	var gotErr error
	for i := 0; i < 2*ctxBatch; i++ {
		if _, gotErr = c.Next(ctx); gotErr != nil {
			break
		}
	}
	if !errors.Is(gotErr, context.Canceled) {
		t.Fatalf("after cancel: err = %v, want context.Canceled", gotErr)
	}
	// The cursor stays exhausted after the error.
	if _, err := c.Next(context.Background()); err != io.EOF {
		t.Errorf("Next after error = %v, want io.EOF", err)
	}
}

// TestPrepareRejectsNonSelect: only SELECT statements have a plan.
func TestPrepareRejectsNonSelect(t *testing.T) {
	db := iterDB(t)
	for _, q := range []string{
		`INSERT INTO a VALUES (1, 'x')`,
		`DELETE FROM a`,
		`DROP TABLE a`,
	} {
		if _, err := Prepare(db, q); err == nil {
			t.Errorf("Prepare(%q) succeeded, want error", q)
		}
	}
	if _, err := Prepare(db, `SELECT id FROM missing`); err == nil {
		t.Error("Prepare against a missing table succeeded, want error")
	}
}

// TestPlanReuse: one plan serves repeated and concurrent executions, and
// an IN (SELECT ...) subquery is re-materialized per run — a cached plan
// sees data inserted between executions (the AST is never frozen).
func TestPlanReuse(t *testing.T) {
	db := iterDB(t)
	p, err := Prepare(db, `SELECT id FROM a WHERE id IN (SELECT id FROM b WHERE tag = 'b7')`)
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Open(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if rows := drain(t, c); len(rows) != 1 {
		t.Fatalf("first run: %d rows, want 1", len(rows))
	}
	mustExec(t, db, `INSERT INTO b VALUES (42, 'b7')`)
	c, err = p.Open(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	rows := drain(t, c)
	if len(rows) != 2 {
		t.Fatalf("after insert: %d rows, want 2 (subquery must re-run)", len(rows))
	}

	// Concurrent runs share the plans: this one, and a join with
	// grouping, HAVING and ORDER BY, whose resolved columns, aggregate
	// slots and sort keys every run reads.
	q, err := Prepare(db, `SELECT a.id % 7 AS k, COUNT(*) AS n, MAX(b.tag) FROM a JOIN b ON a.id = b.id
		WHERE b.id IN (SELECT id FROM b WHERE id < 80) GROUP BY a.id % 7 HAVING COUNT(*) > 10 ORDER BY n DESC, k`)
	if err != nil {
		t.Fatal(err)
	}
	c, err = q.Open(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	wantQ := drain(t, c)
	if len(wantQ) != 7 {
		t.Fatalf("grouped join: %d rows, want 7", len(wantQ))
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		for _, run := range []struct {
			p    *Plan
			want []rel.Tuple
		}{{p, rows}, {q, wantQ}} {
			wg.Add(1)
			go func(p *Plan, want string) {
				defer wg.Done()
				c, err := p.Open(context.Background(), db)
				if err != nil {
					t.Error(err)
					return
				}
				var got []rel.Tuple
				for {
					row, err := c.Next(context.Background())
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Error(err)
						return
					}
					got = append(got, row.Clone())
				}
				if fmt.Sprint(got) != want {
					t.Errorf("concurrent run of %q: %v, want %s", p.SQL(), got, want)
				}
			}(run.p, fmt.Sprint(run.want))
		}
	}
	wg.Wait()
}

// TestCursorClose: Close is idempotent and exhausts the cursor.
func TestCursorClose(t *testing.T) {
	db := iterDB(t)
	c := mustOpen(t, db, `SELECT id FROM a`)
	if _, err := c.Next(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Next(context.Background()); err != io.EOF {
		t.Errorf("Next after Close = %v, want io.EOF", err)
	}
}
