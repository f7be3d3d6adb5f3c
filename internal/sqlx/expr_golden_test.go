package sqlx

import (
	"bufio"
	"context"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/rel"
)

// The expression goldens freeze what every expression node answers —
// under NULL operands, over mixed INT/FLOAT/string/boolean values, in
// three-valued AND/OR/NOT, for IN lists holding NULL, BETWEEN with NULL
// bounds, and the errors (division and modulo by zero, non-numeric
// operands) and when they surface. testdata/expr_golden.txt was recorded
// from the tree-walking interpreter the executor once carried, and is
// hand-maintained like the plan goldens: a changed answer is a behaviour
// change to review.
//
// File format: '#' comment lines; then one entry per query, entries
// separated by blank lines. An entry is a "query:" line and either an
// "error:" line (the query fails with that message) or a "rows:" count
// followed by one line per row, rendered by goldenRow.

// exprGoldenPath is the expression goldens' file.
var exprGoldenPath = filepath.Join("testdata", "expr_golden.txt")

// exprDB is goldenDB plus kinds(id, i, f, s, m, b): seven rows whose
// typed columns hold NULLs, zeros, negatives and an integer above 2^53,
// and whose m column mixes integers, floats, strings and booleans
// whatever its declared kind.
func exprDB(t testing.TB) *rel.Database {
	db := goldenDB(t)
	kinds := db.Create("kinds", rel.NewSchema(intCol("id"), intCol("i"),
		rel.Column{Name: "f", Kind: rel.KindFloat},
		rel.Column{Name: "s", Kind: rel.KindString},
		rel.Column{Name: "m", Kind: rel.KindString},
		rel.Column{Name: "b", Kind: rel.KindBool}))
	null := rel.Null()
	for _, t := range []rel.Tuple{
		{rel.Int(1), rel.Int(1), rel.Float(1.5), rel.Str("a"), rel.Int(2), rel.Bool(true)},
		{rel.Int(2), null, null, null, null, null},
		{rel.Int(3), rel.Int(0), rel.Float(0), rel.Str("10"), rel.Float(2), rel.Bool(false)},
		{rel.Int(4), rel.Int(-3), rel.Float(-0.5), rel.Str("abc"), rel.Str("2"), rel.Bool(true)},
		{rel.Int(5), rel.Int(2), rel.Float(2), rel.Str(""), rel.Bool(true), null},
		{rel.Int(6), rel.Int(1<<53 + 1), rel.Float(1 << 53), rel.Str("B"), rel.Str("abc"), rel.Bool(false)},
		{rel.Int(7), rel.Int(7), rel.Float(math.Inf(1)), rel.Str(" x "), rel.Bool(false), rel.Bool(true)},
	} {
		kinds.Append(t)
	}
	return db
}

// exprCase is one entry of the expression goldens.
type exprCase struct {
	query string
	err   string
	rows  []string
}

func readExprGolden(t *testing.T) []exprCase {
	t.Helper()
	f, err := os.Open(exprGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var cases []exprCase
	var cur *exprCase
	nrows := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "#"):
		case line == "":
			cur = nil
		case cur == nil:
			q, ok := strings.CutPrefix(line, "query: ")
			if !ok {
				t.Fatalf("%s: want a query line, got %q", exprGoldenPath, line)
			}
			cases = append(cases, exprCase{query: q})
			cur = &cases[len(cases)-1]
			nrows = -1
		case nrows < 0 && strings.HasPrefix(line, "error: "):
			cur.err = strings.TrimPrefix(line, "error: ")
		case nrows < 0:
			n, ok := strings.CutPrefix(line, "rows: ")
			if nrows, err = strconv.Atoi(n); !ok || err != nil {
				t.Fatalf("%s: %q: want a rows or error line, got %q", exprGoldenPath, cur.query, line)
			}
			cur.rows = []string{}
		default:
			cur.rows = append(cur.rows, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return cases
}

// exprRun runs q at the given parallelism and returns its rows, or the
// error that ended it.
func exprRun(db *rel.Database, q string, workers int) ([]string, error) {
	plan, err := Prepare(db, q)
	if err != nil {
		return nil, err
	}
	c, err := plan.OpenParallel(context.Background(), db, workers)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	rows := []string{}
	for {
		row, err := c.Next(context.Background())
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return nil, err
		}
		rows = append(rows, goldenRow(row))
	}
}

// TestExprGolden replays the expression goldens at workers 1, 2 and 4:
// the same rows in the same order, or the same error, at each.
func TestExprGolden(t *testing.T) {
	db := exprDB(t)
	cases := readExprGolden(t)
	if len(cases) < 20 {
		t.Fatalf("%s: %d entries, want at least 20", exprGoldenPath, len(cases))
	}
	for _, c := range cases {
		for _, workers := range []int{1, 2, 4} {
			rows, err := exprRun(db, c.query, workers)
			switch {
			case c.err != "":
				if err == nil || err.Error() != c.err {
					t.Errorf("workers=%d %s: error %v, golden %q", workers, c.query, err, c.err)
				}
			case err != nil:
				t.Errorf("workers=%d %s: %v", workers, c.query, err)
			case strings.Join(rows, "\n") != strings.Join(c.rows, "\n"):
				t.Errorf("workers=%d %s:\n%s\ngolden:\n%s", workers, c.query,
					strings.Join(rows, "\n"), strings.Join(c.rows, "\n"))
			}
		}
	}
}
