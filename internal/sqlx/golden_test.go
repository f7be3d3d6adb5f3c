package sqlx

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/rel"
)

// The golden suite freezes the executor's observable behaviour — rows,
// their order, and the stored-tuple read count — as plain-text files
// under testdata/golden. The files were recorded from the tuple-at-a-time
// executor this package carried beside the batch engine until PR 13, so
// they are checked in, never regenerated: a changed row or count is a
// behaviour change to review, and a new shape is added by writing its
// file by hand from a reviewed run. A comment in a file marks each read
// count on which the two engines disagreed.
//
// File format: '#' comment lines, then "query:", "earlystop:",
// "scanned:", "columns:" and "rows:" headers, then one line per row with
// tab-separated values rendered by goldenValue.

// goldenDB is parallelDB plus idim, a copy of dim with a primary-key
// hash index, so index scans and index-probe joins are covered too.
func goldenDB(t testing.TB) *rel.Database {
	db := parallelDB(t)
	idim := db.Create("idim", rel.NewSchema(intCol("id"),
		rel.Column{Name: "name", Kind: rel.KindString}))
	idim.PrimaryKey = "id"
	idim.EnsureIndexes()
	for _, tup := range db.Relation("dim").Tuples {
		idim.Append(tup)
	}
	return db
}

// goldenCase is one parsed golden file.
type goldenCase struct {
	query string
	// earlyStop marks a query that stops under LIMIT above a chain that
	// runs as parallel morsels: producers overrun the cutoff, so the read
	// count is pinned at workers=1 only.
	earlyStop bool
	scanned   int64
	columns   []string
	rows      []string
}

func readGolden(t *testing.T, path string) goldenCase {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var g goldenCase
	nrows := -1
	sc := bufio.NewScanner(f)
	for nrows < 0 && sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, ": ")
		if !ok {
			t.Fatalf("%s: malformed header line %q", path, line)
		}
		switch key {
		case "query":
			g.query = val
		case "earlystop":
			g.earlyStop, err = strconv.ParseBool(val)
		case "scanned":
			g.scanned, err = strconv.ParseInt(val, 10, 64)
		case "columns":
			g.columns = strings.Split(val, ", ")
		case "rows":
			nrows, err = strconv.Atoi(val)
		default:
			t.Fatalf("%s: unknown header %q", path, key)
		}
		if err != nil {
			t.Fatalf("%s: header %q: %v", path, line, err)
		}
	}
	for sc.Scan() {
		g.rows = append(g.rows, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if g.query == "" || len(g.rows) != nrows {
		t.Fatalf("%s: query %q, header says %d rows, file has %d", path, g.query, nrows, len(g.rows))
	}
	return g
}

// goldenValue renders one value so that kinds stay distinguishable:
// NULL, 42, float(2.5), "text" (Go-quoted), true.
func goldenValue(v rel.Value) string {
	if v.Kind() == rel.KindFloat {
		f, _ := v.AsFloat()
		return "float(" + strconv.FormatFloat(f, 'g', -1, 64) + ")"
	}
	return v.String()
}

func goldenRow(row rel.Tuple) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = goldenValue(v)
	}
	return strings.Join(parts, "\t")
}

// goldenRun drains q at the given parallelism degree.
func goldenRun(t testing.TB, db *rel.Database, q string, workers int) (cols, rows []string, scanned int64) {
	t.Helper()
	plan, err := Prepare(db, q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	c, err := plan.OpenParallel(context.Background(), db, workers)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	defer c.Close()
	for {
		row, err := c.Next(context.Background())
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		rows = append(rows, goldenRow(row))
	}
	return c.Columns(), rows, c.Scanned()
}

// TestGolden checks every golden file at workers 1, 2 and 4: identical
// columns, rows and row order always; the read count at workers=1, and
// at workers>1 too unless the query stops early over parallel morsels.
func TestGolden(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 39 {
		t.Fatalf("found %d golden files, want the 27 original shapes plus at least 12 added ones", len(files))
	}
	db := goldenDB(t)
	for _, path := range files {
		g := readGolden(t, path)
		t.Run(strings.TrimSuffix(filepath.Base(path), ".txt"), func(t *testing.T) {
			for _, workers := range []int{1, 2, 4} {
				cols, rows, scanned := goldenRun(t, db, g.query, workers)
				if fmt.Sprint(cols) != fmt.Sprint(g.columns) {
					t.Errorf("workers=%d: columns %v, golden %v", workers, cols, g.columns)
				}
				if len(rows) != len(g.rows) {
					t.Errorf("workers=%d: %d rows, golden %d", workers, len(rows), len(g.rows))
					continue
				}
				for i := range rows {
					if rows[i] != g.rows[i] {
						t.Errorf("workers=%d: row %d = %q, golden %q", workers, i, rows[i], g.rows[i])
						break
					}
				}
				if (workers == 1 || !g.earlyStop) && scanned != g.scanned {
					t.Errorf("workers=%d: scanned %d, golden %d", workers, scanned, g.scanned)
				}
			}
		})
	}
}
