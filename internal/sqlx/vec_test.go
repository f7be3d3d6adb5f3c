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
