package sqlx

import (
	"context"
	"strings"
	"testing"
)

// TestVectorizedExplainAnalyzeBatches: EXPLAIN ANALYZE reports
// per-operator batch counts and the heap-alloc summary.
func TestVectorizedExplainAnalyzeBatches(t *testing.T) {
	db := parallelDB(t)
	plan, err := Prepare(db, `SELECT grp, COUNT(*) FROM fact GROUP BY grp`)
	if err != nil {
		t.Fatal(err)
	}
	text, err := plan.ExplainAnalyze(context.Background(), db, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"batches=", "heap allocs"} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN ANALYZE missing %q:\n%s", want, text)
		}
	}
}

// TestExplainExecutesNothing: EXPLAIN builds the tree execution would
// run but pulls nothing from it, so neither a row predicate nor an IN
// subquery that fails at run time is evaluated.
func TestExplainExecutesNothing(t *testing.T) {
	db := parallelDB(t)
	for _, q := range []string{
		`SELECT id FROM fact WHERE id / 0 = 1`,
		`SELECT id FROM fact WHERE dim_id IN (SELECT id FROM dim WHERE id / 0 = 1)`,
		`SELECT 1 WHERE 1 IN (SELECT id / 0 FROM dim)`,
	} {
		plan, err := Prepare(db, q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := plan.Explain(db); err != nil {
			t.Errorf("%s: Explain: %v", q, err)
		}
		if _, err := Exec(db, q); err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Errorf("%s: Exec error %v, want division by zero", q, err)
		}
	}
}
