package sqlx

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/rel"
)

// optDB builds a pair of databases with identical contents: one with the
// declared-key indexes auto-built by CREATE TABLE, one stripped of all
// indexes (Clone drops them) — the scan baseline.
func optDB(t *testing.T) (indexed, stripped *rel.Database) {
	t.Helper()
	db := rel.NewDatabase("test")
	mustExec(t, db, `CREATE TABLE protein (id INTEGER PRIMARY KEY, accession TEXT UNIQUE, name TEXT, organism_id INTEGER REFERENCES organism(id), mass REAL)`)
	mustExec(t, db, `CREATE TABLE organism (id INTEGER PRIMARY KEY, species TEXT)`)
	var orgs, prots []string
	for i := 0; i < 50; i++ {
		orgs = append(orgs, fmt.Sprintf("(%d, 'species %d')", i, i))
	}
	for i := 0; i < 200; i++ {
		prots = append(prots, fmt.Sprintf("(%d, 'P%05d', 'protein %d', %d, %d.5)", i, i, i, i%50, 1000+i))
	}
	mustExec(t, db, `INSERT INTO organism VALUES `+strings.Join(orgs, ", "))
	mustExec(t, db, `INSERT INTO protein VALUES `+strings.Join(prots, ", "))

	stripped = rel.NewDatabase(db.Name)
	for _, r := range db.Relations() {
		stripped.Put(r.Clone())
	}
	return db, stripped
}

func scannedFor(t *testing.T, db *rel.Database, q string) (int64, []rel.Tuple) {
	t.Helper()
	c := mustOpen(t, db, q)
	rows := drain(t, c)
	return c.Scanned(), rows
}

// TestIndexScanPointQuery: a primary-key equality probe reads exactly
// the matching tuple, not the relation.
func TestIndexScanPointQuery(t *testing.T) {
	indexed, stripped := optDB(t)
	q := `SELECT name FROM protein WHERE id = 42`
	scanned, rows := scannedFor(t, indexed, q)
	if len(rows) != 1 || rows[0][0].AsString() != "protein 42" {
		t.Fatalf("rows = %v", rows)
	}
	if scanned != 1 {
		t.Errorf("index point query scanned %d tuples, want 1", scanned)
	}
	baseScanned, baseRows := scannedFor(t, stripped, q)
	if len(baseRows) != 1 || rowKey(baseRows[0]) != rowKey(rows[0]) {
		t.Fatalf("scan baseline disagrees: %v vs %v", baseRows, rows)
	}
	if baseScanned != 200 {
		t.Errorf("scan baseline scanned %d, want 200", baseScanned)
	}
}

// TestIndexScanConstantFolding: the equality constant may be a foldable
// expression; rewrite rule 2 reduces it to a literal the index can probe.
func TestIndexScanConstantFolding(t *testing.T) {
	indexed, _ := optDB(t)
	scanned, rows := scannedFor(t, indexed, `SELECT name FROM protein WHERE id = 40 + 2`)
	if len(rows) != 1 || rows[0][0].AsString() != "protein 42" {
		t.Fatalf("rows = %v", rows)
	}
	if scanned != 1 {
		t.Errorf("folded point query scanned %d tuples, want 1", scanned)
	}
}

// TestIndexScanExtraFilter: remaining pushed conjuncts still apply above
// the index probe.
func TestIndexScanExtraFilter(t *testing.T) {
	indexed, _ := optDB(t)
	scanned, rows := scannedFor(t, indexed,
		`SELECT name FROM protein WHERE organism_id = 7 AND mass > 1100`)
	// organism_id hits the REFERENCES-derived index: 4 of 200 tuples.
	if scanned != 4 {
		t.Errorf("scanned %d tuples, want 4 (organism_id bucket)", scanned)
	}
	for _, r := range rows {
		if r[0].IsNull() {
			t.Errorf("bad row %v", r)
		}
	}
}

// TestIndexJoinProbe: an FK join probes the right relation's persistent
// index — scanned tuples stay proportional to the result, not to the
// relation sizes.
func TestIndexJoinProbe(t *testing.T) {
	indexed, stripped := optDB(t)
	q := `SELECT p.name, o.species FROM protein p JOIN organism o ON p.organism_id = o.id WHERE p.id = 3`
	scanned, rows := scannedFor(t, indexed, q)
	if len(rows) != 1 || rows[0][1].AsString() != "species 3" {
		t.Fatalf("rows = %v", rows)
	}
	// 1 (index probe on protein.id) + 1 (index probe of organism).
	if scanned != 2 {
		t.Errorf("indexed FK join scanned %d tuples, want 2", scanned)
	}
	baseScanned, baseRows := scannedFor(t, stripped, q)
	if len(baseRows) != 1 || rowKey(baseRows[0]) != rowKey(rows[0]) {
		t.Fatalf("baseline disagrees: %v vs %v", baseRows, rows)
	}
	if baseScanned <= scanned {
		t.Errorf("baseline scanned %d, not more than indexed %d", baseScanned, scanned)
	}
}

// TestOptimizedQueriesMatchScanBaseline: a battery of queries must
// return identical results with and without indexes — the optimizer may
// only change access paths, never semantics.
func TestOptimizedQueriesMatchScanBaseline(t *testing.T) {
	indexed, stripped := optDB(t)
	queries := []string{
		`SELECT * FROM protein WHERE id = 7`,
		`SELECT * FROM protein WHERE accession = 'P00011'`,
		`SELECT name FROM protein WHERE id = 9999`,
		`SELECT COUNT(*) FROM protein WHERE organism_id = 3`,
		`SELECT p.name, o.species FROM protein p JOIN organism o ON p.organism_id = o.id WHERE o.id = 5 ORDER BY p.name`,
		`SELECT p.name, o.species FROM protein p LEFT JOIN organism o ON p.organism_id = o.id WHERE o.species IS NULL`,
		`SELECT o.species, COUNT(*) AS n FROM protein p JOIN organism o ON p.organism_id = o.id GROUP BY o.species ORDER BY n DESC, o.species LIMIT 5`,
		`SELECT name FROM protein WHERE id = 1 OR id = 2 ORDER BY id`,
		`SELECT name FROM protein WHERE id IN (SELECT id FROM organism WHERE id = 4)`,
		`SELECT name FROM protein WHERE 1 = 1 AND id = 12`,
		`SELECT name FROM protein WHERE id = 5 AND 1 = 0`,
		`SELECT p.id FROM protein p JOIN organism o ON p.organism_id = o.id AND o.id > 40 ORDER BY p.id LIMIT 7`,
	}
	for _, q := range queries {
		_, want := scannedFor(t, stripped, q)
		_, got := scannedFor(t, indexed, q)
		if len(got) != len(want) {
			t.Errorf("%s: %d rows indexed vs %d stripped", q, len(got), len(want))
			continue
		}
		for i := range got {
			if rowKey(got[i]) != rowKey(want[i]) {
				t.Errorf("%s: row %d = %v, want %v", q, i, got[i], want[i])
			}
		}
	}
}

// TestPushdownPreservesLeftJoin: predicates on the nullable side of a
// LEFT JOIN must not move below the join. protein 0..199 all reference
// existing organisms, so orphan the probe row first.
func TestPushdownPreservesLeftJoin(t *testing.T) {
	indexed, _ := optDB(t)
	mustExec(t, indexed, `INSERT INTO protein VALUES (999, 'X99999', 'orphan', 777, 1.0)`)
	res := mustExec(t, indexed, `
		SELECT p.name FROM protein p LEFT JOIN organism o ON p.organism_id = o.id
		WHERE o.species IS NULL`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "orphan" {
		t.Fatalf("left-join rows = %v", res.Rows)
	}
}

// TestSmallerSideHashBuild: with no usable index and a selective left
// input, the hash table is built on the left and the right side streams —
// under a LIMIT the right scan stops early.
func TestSmallerSideHashBuild(t *testing.T) {
	_, stripped := optDB(t)
	lg, err := buildLogical(stripped, mustParseSelect(t,
		`SELECT p.name, o.species FROM organism o JOIN protein p ON p.organism_id = o.id WHERE o.id = 3`))
	if err != nil {
		t.Fatal(err)
	}
	ja, err := bindJoin(newBinder(stripped, lg), lg.tables[1], 1)
	if err != nil {
		t.Fatal(err)
	}
	if ja.strategy != joinHashBuildLeft {
		t.Fatalf("strategy = %v, want HashJoin(build=left)", ja.strategy)
	}
	// End-to-end: the swapped build agrees with the materialized executor.
	q := `SELECT p.name FROM organism o JOIN protein p ON p.organism_id = o.id WHERE o.id = 3 ORDER BY p.name`
	want := mustExec(t, stripped, q)
	_, got := scannedFor(t, stripped, q)
	if len(got) != len(want.Rows) {
		t.Fatalf("%d rows vs %d", len(got), len(want.Rows))
	}
}

func mustParseSelect(t *testing.T, q string) *SelectStmt {
	t.Helper()
	stmt, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	return stmt.(*SelectStmt)
}

// TestDistinctSeparatorCollision: rows that collided under the old
// separator-joined duplicate-elimination key stay distinct.
func TestDistinctSeparatorCollision(t *testing.T) {
	db := rel.NewDatabase("test")
	r := db.Create("t", rel.TextSchema("a", "b"))
	r.Append(rel.Tuple{rel.Str("x"), rel.Str("y\x01sz")})
	r.Append(rel.Tuple{rel.Str("x\x01sy"), rel.Str("z")})
	res := mustExec(t, db, `SELECT DISTINCT a, b FROM t`)
	if len(res.Rows) != 2 {
		t.Fatalf("DISTINCT collapsed %d rows, want 2 (separator collision)", len(res.Rows))
	}
	res = mustExec(t, db, `SELECT a, b, COUNT(*) FROM t GROUP BY a, b`)
	if len(res.Rows) != 2 {
		t.Fatalf("GROUP BY collapsed %d groups, want 2", len(res.Rows))
	}
}

// TestExplainNamesAccessPaths: every scan node names its access path,
// and estimates reflect exact index bucket sizes.
func TestExplainNamesAccessPaths(t *testing.T) {
	indexed, stripped := optDB(t)
	plan, err := Prepare(indexed, `SELECT p.name, o.species FROM protein p JOIN organism o ON p.organism_id = o.id WHERE p.id = 3 ORDER BY p.name LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	text, err := plan.Explain(indexed)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"IndexScan(protein AS p: id = 3) [rows≈1]",
		"IndexJoin(organism AS o ON", "Project(name, species)", "Sort(", "Limit(5)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Explain missing %q:\n%s", want, text)
		}
	}
	// The same plan explained against the stripped snapshot binds to scan
	// access paths — bind happens per snapshot.
	text, err = plan.Explain(stripped)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "Scan(protein AS p") || strings.Contains(text, "IndexScan") {
		t.Errorf("stripped snapshot should use Scan paths:\n%s", text)
	}
}

// TestExplainUnion: union chains render every branch with its own access
// paths.
func TestExplainUnion(t *testing.T) {
	indexed, _ := optDB(t)
	plan, err := Prepare(indexed, `SELECT id FROM protein WHERE id = 1 UNION SELECT id FROM organism ORDER BY id LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	text, err := plan.Explain(indexed)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Union", "Distinct", "IndexScan(protein", "Scan(organism"} {
		if !strings.Contains(text, want) {
			t.Errorf("union Explain missing %q:\n%s", want, text)
		}
	}
}

// TestPlanRebindsAcrossSnapshots: one cached plan opened against
// successive snapshots binds to each snapshot's own indexes.
func TestPlanRebindsAcrossSnapshots(t *testing.T) {
	indexed, stripped := optDB(t)
	plan, err := Prepare(stripped, `SELECT name FROM protein WHERE id = 7`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c, err := plan.Open(ctx, stripped)
	if err != nil {
		t.Fatal(err)
	}
	if rows := drain(t, c); len(rows) != 1 {
		t.Fatalf("stripped rows = %v", rows)
	}
	if c.Scanned() != 200 {
		t.Errorf("stripped open scanned %d, want 200", c.Scanned())
	}
	c, err = plan.Open(ctx, indexed)
	if err != nil {
		t.Fatal(err)
	}
	if rows := drain(t, c); len(rows) != 1 {
		t.Fatalf("indexed rows = %v", rows)
	}
	if c.Scanned() != 1 {
		t.Errorf("re-open against indexed snapshot scanned %d, want 1 (must rebind)", c.Scanned())
	}
}
