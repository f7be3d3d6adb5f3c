package sqlx

import (
	"context"
	"fmt"
	"io"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/rel"
)

// fuzzSeeds covers every statement kind and the grammar corners that
// have bitten the renderer: keyword-colliding identifiers, quoted
// identifiers, integral float literals, NOT LIKE, UNION chains with
// head-bound ORDER/LIMIT, and CROSS JOIN via comma.
var fuzzSeeds = []string{
	`SELECT 1`,
	`SELECT 1 + 2 * 3, -4, 1.0, 1.5, 'it''s', NULL, TRUE, FALSE`,
	`SELECT * FROM protein`,
	`SELECT p.*, o.species AS sp FROM protein p JOIN organism o ON p.organism_id = o.id`,
	`SELECT a.x FROM a LEFT JOIN b ON a.x = b.x WHERE b.x IS NULL`,
	`SELECT a.x FROM a, b WHERE a.x = b.x`,
	`SELECT x FROM t WHERE x != 1 AND NOT y LIKE 'a%' OR z BETWEEN 1 AND 10`,
	`SELECT x FROM t WHERE x IN (1, 2, 3) AND y NOT IN (SELECT y FROM u WHERE y > 0)`,
	`SELECT grp, COUNT(*), SUM(id), AVG(DISTINCT id) FROM fact GROUP BY grp HAVING COUNT(*) > 2`,
	`SELECT DISTINCT LOWER(name) || '!' FROM t ORDER BY name DESC LIMIT 10 OFFSET 2`,
	`SELECT id FROM a UNION ALL SELECT id FROM b UNION SELECT id FROM c ORDER BY id LIMIT 5`,
	`SELECT "select", t."from" FROM "table" AS t`,
	`SELECT key, "all" FROM k`,
	`INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)`,
	`INSERT INTO t VALUES (1.25, TRUE)`,
	`CREATE TABLE IF NOT EXISTS t (id INTEGER PRIMARY KEY, name TEXT UNIQUE, w REAL, ok BOOLEAN, o_id INT REFERENCES organism (id))`,
	`DROP TABLE IF EXISTS t`,
	`UPDATE t SET a = a + 1, b = 'x' WHERE id = 3`,
	`DELETE FROM t WHERE x IS NOT NULL`,
	`SELECT COALESCE(SUBSTR(name, 1, 3), 'n/a'), LENGTH(name) FROM t;`,
}

// roundTrip asserts the render fixpoint for one input: if it parses,
// the rendered SQL must re-parse, and rendering the re-parse must be
// byte-identical to the first rendering.
func roundTrip(t *testing.T, sql string) {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		return
	}
	r1 := RenderSQL(stmt)
	stmt2, err := Parse(r1)
	if err != nil {
		t.Fatalf("rendered SQL does not re-parse\ninput:    %q\nrendered: %q\nerror:    %v", sql, r1, err)
	}
	r2 := RenderSQL(stmt2)
	if r1 != r2 {
		t.Fatalf("render is not a fixpoint\ninput:  %q\nfirst:  %q\nsecond: %q", sql, r1, r2)
	}
}

// resolveError matches the errors the resolver reports: names, functions,
// arities and aggregate placement.
var resolveError = regexp.MustCompile(`unknown column|ambiguous column|no column|unknown table binding|unknown function|takes \d|not allowed here|must appear in grouped`)

// emptied copies db's relations without their tuples.
func emptied(db *rel.Database) *rel.Database {
	out := rel.NewDatabase("empty")
	for _, r := range db.Relations() {
		out.Create(r.Name, r.Schema)
	}
	return out
}

// sameVerdict asserts that a query's validity does not depend on the
// data: Prepare gives the same verdict over full and over its emptied
// copy, and once it accepts, no execution over either reports an error
// the resolver should have. Executions are cut short (a few batches, a
// short deadline), as arbitrary cross joins may be large.
func sameVerdict(t *testing.T, full, empty *rel.Database, sql string) {
	t.Helper()
	pf, errFull := Prepare(full, sql)
	pe, errEmpty := Prepare(empty, sql)
	if fmt.Sprint(errFull) != fmt.Sprint(errEmpty) {
		t.Fatalf("Prepare(%q) depends on the data:\nfull:  %v\nempty: %v", sql, errFull, errEmpty)
	}
	if errFull != nil {
		return
	}
	for _, run := range []struct {
		p  *Plan
		db *rel.Database
	}{{pf, full}, {pe, empty}} {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		cur, err := run.p.Open(ctx, run.db)
		for i := 0; err == nil && i < 3*vecBatch; i++ {
			_, err = cur.Next(ctx)
		}
		cancel()
		if err != nil && resolveError.MatchString(err.Error()) {
			t.Fatalf("%q prepared, then failed as only Prepare should: %v", sql, err)
		}
	}
}

// TestRenderRoundTrip runs the fixpoint check over the deterministic
// seed corpus, so the property is exercised by plain `go test` too.
func TestRenderRoundTrip(t *testing.T) {
	for _, sql := range fuzzSeeds {
		roundTrip(t, sql)
	}
}

// TestRenderCanonical pins a few renderings so accidental renderer
// changes surface as readable diffs instead of fuzz failures.
func TestRenderCanonical(t *testing.T) {
	for _, tc := range [][2]string{
		{`select x from t where x!=1`, `SELECT x FROM t WHERE (x <> 1)`},
		{`SELECT 2.0`, `SELECT 2.0`},
		{`SELECT a||'s' FROM "table"`, `SELECT (a || 's') FROM "table"`},
		{`SELECT x FROM a, b LIMIT 3`, `SELECT x FROM a CROSS JOIN b LIMIT 3`},
		{`SELECT x FROM t WHERE NOT x LIKE 'a%'`, `SELECT x FROM t WHERE (NOT (x LIKE 'a%'))`},
	} {
		stmt, err := Parse(tc[0])
		if err != nil {
			t.Fatalf("%s: %v", tc[0], err)
		}
		if got := RenderSQL(stmt); got != tc[1] {
			t.Errorf("%s:\n  got  %q\n  want %q", tc[0], got, tc[1])
		}
		roundTrip(t, tc[0])
	}
}

// sameAtEveryWorkerCount executes a query that prepared against db at
// workers 1, 2 and 4 and requires the same rows in the same order at
// each: the exchange keeps morsel order, and fact has more than one
// morsel, so it runs. Each execution is cut short as in sameVerdict. A
// run that fails is not compared: under LIMIT a morsel may evaluate rows
// past the last one returned, so an error there is not an error serially.
func sameAtEveryWorkerCount(t *testing.T, db *rel.Database, sql string) {
	t.Helper()
	p, err := Prepare(db, sql)
	if err != nil {
		return
	}
	var want string
	for _, workers := range []int{1, 2, 4} {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		var b strings.Builder
		cur, err := p.OpenParallel(ctx, db, workers)
		for i := 0; err == nil && i < 3*vecBatch; i++ {
			var row rel.Tuple
			if row, err = cur.Next(ctx); err == nil {
				b.WriteString(goldenRow(row) + "\n")
			}
		}
		if cur != nil {
			cur.Close()
		}
		cancel()
		if err != nil && err != io.EOF {
			return
		}
		if workers == 1 {
			want = b.String()
		} else if got := b.String(); got != want {
			t.Fatalf("%q at workers=%d differs from workers=1:\n%s\nwant:\n%s", sql, workers, got, want)
		}
	}
}

// FuzzPrepare throws arbitrary bytes at the parser and the resolver: they
// must never panic, anything the parser accepts must survive the render
// round trip, whether a query prepares must not depend on the data
// (sameVerdict), and a query that prepares against goldenDB gives the
// same rows in the same order at every worker count
// (sameAtEveryWorkerCount).
func FuzzPrepare(f *testing.F) {
	for _, sql := range fuzzSeeds {
		f.Add(sql)
	}
	// A few deliberately broken shapes to steer mutation.
	f.Add(`SELECT`)
	f.Add(`SELECT ((((1`)
	f.Add(`SELECT 'unterminated`)
	f.Add(`SELECT 1 FROM`)
	f.Add(strings.Repeat(`(`, 100))
	// Queries over goldenDB, valid and not, for the data-independence
	// property.
	for _, sql := range []string{
		`SELECT f.id, d.name FROM fact f JOIN dim d ON f.dim_id = d.id WHERE d.id < 10 ORDER BY 2 DESC`,
		`SELECT grp, COUNT(*) FROM fact GROUP BY grp HAVING COUNT(*) > 440 ORDER BY grp`,
		`SELECT a.id FROM dim a JOIN idim b ON a.id = b.id JOIN dim c ON b.id = c.id WHERE c.name <> 'x'`,
		`SELECT id, seq FROM motif WHERE seq LIKE '%ACGTA%' AND id IN (SELECT id FROM idim) ORDER BY seq`,
		`SELECT nosuch FROM fact`,
		`SELECT id FROM fact f JOIN dim d ON f.dim_id = d.id`,
		`SELECT id FROM fact WHERE grp = 9 AND NOSUCH = 1`,
		`SELECT f.id FROM fact f LEFT JOIN dim d ON f.dim_id = d.nosuch`,
		`SELECT note FROM fact GROUP BY x.note ORDER BY note`,
		`SELECT name FROM idim WHERE id IN (SELECT nosuch FROM motif)`,
		`SELECT grp, SUM(id) FROM fact GROUP BY grp ORDER BY id`,
	} {
		f.Add(sql)
	}
	full := goldenDB(f)
	empty := emptied(full)
	f.Fuzz(func(t *testing.T, sql string) {
		roundTrip(t, sql)
		sameVerdict(t, full, empty, sql)
		sameAtEveryWorkerCount(t, full, sql)
	})
}
