package sqlx

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rel"
)

// mustExec executes and fails the test on error.
func mustExec(t *testing.T, db *rel.Database, sql string) *Result {
	t.Helper()
	res, err := Exec(db, sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func testDB(t *testing.T) *rel.Database {
	t.Helper()
	db := rel.NewDatabase("test")
	mustExec(t, db, `CREATE TABLE protein (id INTEGER PRIMARY KEY, accession TEXT UNIQUE, name TEXT, organism_id INTEGER REFERENCES organism(id), mass REAL)`)
	mustExec(t, db, `CREATE TABLE organism (id INTEGER PRIMARY KEY, species TEXT)`)
	mustExec(t, db, `INSERT INTO organism VALUES (1, 'Homo sapiens'), (2, 'Mus musculus')`)
	mustExec(t, db, `INSERT INTO protein VALUES
		(1, 'P12345', 'hemoglobin alpha', 1, 15258.0),
		(2, 'P67890', 'myoglobin', 1, 17184.0),
		(3, 'Q11111', 'insulin', 2, 5808.0),
		(4, 'Q22222', 'keratin', 2, 66018.0)`)
	return db
}

func TestCreateTableConstraints(t *testing.T) {
	db := testDB(t)
	p := db.Relation("protein")
	if p.PrimaryKey != "id" {
		t.Errorf("PrimaryKey = %q", p.PrimaryKey)
	}
	if !p.UniqueCols["accession"] {
		t.Error("accession not marked unique")
	}
	if len(p.ForeignKeys) != 1 || p.ForeignKeys[0].ToRelation != "organism" {
		t.Errorf("ForeignKeys = %v", p.ForeignKeys)
	}
}

func TestCreateTableIfNotExists(t *testing.T) {
	db := testDB(t)
	if _, err := Exec(db, `CREATE TABLE protein (x TEXT)`); err == nil {
		t.Error("duplicate CREATE TABLE should fail")
	}
	mustExec(t, db, `CREATE TABLE IF NOT EXISTS protein (x TEXT)`)
}

func TestSelectAll(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, `SELECT * FROM protein`)
	if len(res.Rows) != 4 || len(res.Columns) != 5 {
		t.Errorf("rows=%d cols=%d", len(res.Rows), len(res.Columns))
	}
	if res.Columns[1] != "accession" {
		t.Errorf("Columns = %v", res.Columns)
	}
}

func TestSelectWhere(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, `SELECT name FROM protein WHERE organism_id = 1 AND mass > 16000`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "myoglobin" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestSelectWhereOrNot(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, `SELECT accession FROM protein WHERE NOT (organism_id = 1) OR name = 'myoglobin' ORDER BY accession`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].AsString() != "P67890" {
		t.Errorf("first = %v", res.Rows[0])
	}
}

func TestSelectLike(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, `SELECT accession FROM protein WHERE name LIKE '%globin%' ORDER BY accession`)
	if len(res.Rows) != 2 {
		t.Errorf("LIKE rows = %v", res.Rows)
	}
	res = mustExec(t, db, `SELECT accession FROM protein WHERE accession LIKE 'Q_1111'`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "Q11111" {
		t.Errorf("underscore LIKE rows = %v", res.Rows)
	}
}

func TestSelectIn(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, `SELECT name FROM protein WHERE accession IN ('P12345', 'Q22222') ORDER BY name`)
	if len(res.Rows) != 2 || res.Rows[0][0].AsString() != "hemoglobin alpha" {
		t.Errorf("IN rows = %v", res.Rows)
	}
	res = mustExec(t, db, `SELECT COUNT(*) FROM protein WHERE accession NOT IN ('P12345')`)
	if n, _ := res.Rows[0][0].AsInt(); n != 3 {
		t.Errorf("NOT IN count = %d", n)
	}
}

func TestSelectBetween(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, `SELECT name FROM protein WHERE mass BETWEEN 10000 AND 20000 ORDER BY mass`)
	if len(res.Rows) != 2 || res.Rows[0][0].AsString() != "hemoglobin alpha" {
		t.Errorf("BETWEEN rows = %v", res.Rows)
	}
}

func TestSelectJoin(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, `
		SELECT p.name, o.species
		FROM protein p JOIN organism o ON p.organism_id = o.id
		WHERE o.species = 'Mus musculus'
		ORDER BY p.name`)
	if len(res.Rows) != 2 {
		t.Fatalf("join rows = %v", res.Rows)
	}
	if res.Rows[0][0].AsString() != "insulin" || res.Rows[0][1].AsString() != "Mus musculus" {
		t.Errorf("row = %v", res.Rows[0])
	}
}

func TestSelectLeftJoin(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `INSERT INTO protein VALUES (5, 'X00001', 'orphan', 99, 100.0)`)
	res := mustExec(t, db, `
		SELECT p.name, o.species
		FROM protein p LEFT JOIN organism o ON p.organism_id = o.id
		WHERE o.species IS NULL`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "orphan" {
		t.Errorf("left join rows = %v", res.Rows)
	}
}

func TestSelectThreeWayJoin(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE xref (protein_id INTEGER, target TEXT)`)
	mustExec(t, db, `INSERT INTO xref VALUES (1, 'PDB:1ABC'), (3, 'PDB:2DEF')`)
	res := mustExec(t, db, `
		SELECT o.species, x.target
		FROM protein p
		JOIN organism o ON p.organism_id = o.id
		JOIN xref x ON x.protein_id = p.id
		ORDER BY x.target`)
	if len(res.Rows) != 2 {
		t.Fatalf("3-way join rows = %v", res.Rows)
	}
	if res.Rows[1][1].AsString() != "PDB:2DEF" {
		t.Errorf("row = %v", res.Rows[1])
	}
}

func TestSelectCrossJoin(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, `SELECT COUNT(*) FROM protein p CROSS JOIN organism o`)
	if n, _ := res.Rows[0][0].AsInt(); n != 8 {
		t.Errorf("cross join count = %d want 8", n)
	}
}

func TestGroupByAggregates(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, `
		SELECT organism_id, COUNT(*), AVG(mass), MIN(name), MAX(mass)
		FROM protein GROUP BY organism_id ORDER BY organism_id`)
	if len(res.Rows) != 2 {
		t.Fatalf("group rows = %v", res.Rows)
	}
	if n, _ := res.Rows[0][1].AsInt(); n != 2 {
		t.Errorf("count = %d", n)
	}
	avg, _ := res.Rows[0][2].AsFloat()
	if avg != (15258.0+17184.0)/2 {
		t.Errorf("avg = %v", avg)
	}
	if res.Rows[0][3].AsString() != "hemoglobin alpha" {
		t.Errorf("min name = %v", res.Rows[0][3])
	}
}

func TestGroupByHaving(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, `
		SELECT organism_id, COUNT(*) AS n FROM protein
		GROUP BY organism_id HAVING COUNT(*) >= 2 ORDER BY organism_id`)
	if len(res.Rows) != 2 {
		t.Errorf("having rows = %v", res.Rows)
	}
	mustExec(t, db, `INSERT INTO organism VALUES (3, 'Gallus gallus')`)
	mustExec(t, db, `INSERT INTO protein VALUES (6, 'Z00001', 'ovalbumin', 3, 42750.0)`)
	res = mustExec(t, db, `
		SELECT organism_id FROM protein
		GROUP BY organism_id HAVING COUNT(*) = 1`)
	if len(res.Rows) != 1 {
		t.Errorf("having=1 rows = %v", res.Rows)
	}
}

func TestAggregateWithoutGroupBy(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, `SELECT COUNT(*), SUM(mass) FROM protein`)
	if n, _ := res.Rows[0][0].AsInt(); n != 4 {
		t.Errorf("count = %d", n)
	}
	sum, _ := res.Rows[0][1].AsFloat()
	if sum != 15258.0+17184.0+5808.0+66018.0 {
		t.Errorf("sum = %v", sum)
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, `SELECT COUNT(*), SUM(mass) FROM protein WHERE mass > 1000000`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if n, _ := res.Rows[0][0].AsInt(); n != 0 {
		t.Errorf("count = %d", n)
	}
	if !res.Rows[0][1].IsNull() {
		t.Errorf("SUM over empty must be NULL, got %v", res.Rows[0][1])
	}
}

func TestCountDistinct(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, `SELECT COUNT(DISTINCT organism_id) FROM protein`)
	if n, _ := res.Rows[0][0].AsInt(); n != 2 {
		t.Errorf("count distinct = %d", n)
	}
}

func TestSelectDistinct(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, `SELECT DISTINCT organism_id FROM protein ORDER BY organism_id`)
	if len(res.Rows) != 2 {
		t.Errorf("distinct rows = %v", res.Rows)
	}
}

func TestOrderByDescLimitOffset(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, `SELECT name FROM protein ORDER BY mass DESC LIMIT 2`)
	if len(res.Rows) != 2 || res.Rows[0][0].AsString() != "keratin" {
		t.Errorf("rows = %v", res.Rows)
	}
	res = mustExec(t, db, `SELECT name FROM protein ORDER BY mass DESC LIMIT 2 OFFSET 1`)
	if res.Rows[0][0].AsString() != "myoglobin" {
		t.Errorf("offset rows = %v", res.Rows)
	}
}

func TestOrderByAlias(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, `SELECT name, mass * 2 AS m2 FROM protein ORDER BY m2 DESC LIMIT 1`)
	if res.Rows[0][0].AsString() != "keratin" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestScalarFunctions(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, `SELECT UPPER(name), LENGTH(accession), LOWER('ABC'), SUBSTR(accession, 1, 1) FROM protein WHERE id = 1`)
	r := res.Rows[0]
	if r[0].AsString() != "HEMOGLOBIN ALPHA" {
		t.Errorf("UPPER = %v", r[0])
	}
	if n, _ := r[1].AsInt(); n != 6 {
		t.Errorf("LENGTH = %v", r[1])
	}
	if r[2].AsString() != "abc" {
		t.Errorf("LOWER = %v", r[2])
	}
	if r[3].AsString() != "P" {
		t.Errorf("SUBSTR = %v", r[3])
	}
}

func TestArithmetic(t *testing.T) {
	db := rel.NewDatabase("t")
	res := mustExec(t, db, `SELECT 2 + 3 * 4, (2 + 3) * 4, 10 / 3, 10 % 3, -5 + 1, 1.5 * 2`)
	r := res.Rows[0]
	if n, _ := r[0].AsInt(); n != 14 {
		t.Errorf("precedence: %v", r[0])
	}
	if n, _ := r[1].AsInt(); n != 20 {
		t.Errorf("parens: %v", r[1])
	}
	if n, _ := r[2].AsInt(); n != 3 {
		t.Errorf("int div: %v", r[2])
	}
	if n, _ := r[3].AsInt(); n != 1 {
		t.Errorf("mod: %v", r[3])
	}
	if n, _ := r[4].AsInt(); n != -4 {
		t.Errorf("unary minus: %v", r[4])
	}
	if f, _ := r[5].AsFloat(); f != 3.0 {
		t.Errorf("float mul: %v", r[5])
	}
}

func TestDivisionByZero(t *testing.T) {
	db := rel.NewDatabase("t")
	if _, err := Exec(db, `SELECT 1 / 0`); err == nil {
		t.Error("expected division-by-zero error")
	}
}

func TestStringConcat(t *testing.T) {
	db := rel.NewDatabase("t")
	res := mustExec(t, db, `SELECT 'Uniprot' || ':' || 'P11140'`)
	if res.Rows[0][0].AsString() != "Uniprot:P11140" {
		t.Errorf("concat = %v", res.Rows[0][0])
	}
}

func TestNullSemantics(t *testing.T) {
	db := rel.NewDatabase("t")
	mustExec(t, db, `CREATE TABLE t (a INTEGER)`)
	mustExec(t, db, `INSERT INTO t VALUES (1), (NULL), (3)`)
	res := mustExec(t, db, `SELECT COUNT(*) FROM t WHERE a = NULL`)
	if n, _ := res.Rows[0][0].AsInt(); n != 0 {
		t.Errorf("= NULL matched %d rows; must match none", n)
	}
	res = mustExec(t, db, `SELECT COUNT(*) FROM t WHERE a IS NULL`)
	if n, _ := res.Rows[0][0].AsInt(); n != 1 {
		t.Errorf("IS NULL matched %d", n)
	}
	res = mustExec(t, db, `SELECT COUNT(a) FROM t`)
	if n, _ := res.Rows[0][0].AsInt(); n != 2 {
		t.Errorf("COUNT(a) = %d; NULLs must not count", n)
	}
}

func TestInsertWithColumns(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `INSERT INTO protein (id, accession) VALUES (9, 'Z99999')`)
	res := mustExec(t, db, `SELECT name FROM protein WHERE id = 9`)
	if !res.Rows[0][0].IsNull() {
		t.Errorf("unlisted column should be NULL, got %v", res.Rows[0][0])
	}
}

func TestUpdate(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, `UPDATE protein SET name = 'renamed', mass = mass + 1 WHERE id = 1`)
	if res.Affected != 1 {
		t.Errorf("affected = %d", res.Affected)
	}
	check := mustExec(t, db, `SELECT name, mass FROM protein WHERE id = 1`)
	if check.Rows[0][0].AsString() != "renamed" {
		t.Errorf("name = %v", check.Rows[0][0])
	}
	if f, _ := check.Rows[0][1].AsFloat(); f != 15259.0 {
		t.Errorf("mass = %v", check.Rows[0][1])
	}
}

func TestDelete(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, `DELETE FROM protein WHERE organism_id = 2`)
	if res.Affected != 2 {
		t.Errorf("affected = %d", res.Affected)
	}
	check := mustExec(t, db, `SELECT COUNT(*) FROM protein`)
	if n, _ := check.Rows[0][0].AsInt(); n != 2 {
		t.Errorf("remaining = %d", n)
	}
}

func TestDropTableErrors(t *testing.T) {
	db := testDB(t)
	if _, err := Exec(db, `DROP TABLE nope`); err == nil {
		t.Error("expected error dropping missing table")
	}
	mustExec(t, db, `DROP TABLE IF EXISTS nope`)
	mustExec(t, db, `DROP TABLE organism`)
	if db.Relation("organism") != nil {
		t.Error("organism not dropped")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`SELEC * FROM t`,
		`SELECT FROM`,
		`SELECT * FROM t WHERE`,
		`INSERT INTO t VALUES (1,`,
		`SELECT 'unterminated`,
		`SELECT a FROM t GROUP`,
		`SELECT @ FROM t`,
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

func TestExecErrors(t *testing.T) {
	db := testDB(t)
	bad := []string{
		`SELECT * FROM nonexistent`,
		`SELECT nocolumn FROM protein`,
		`SELECT p.nocolumn FROM protein p`,
		`SELECT id FROM protein JOIN nonexistent n ON n.x = protein.id`,
		`INSERT INTO protein (nocolumn) VALUES (1)`,
		`INSERT INTO protein VALUES (1)`,
		// Unknown names fail at Prepare wherever they appear, whatever
		// the data (failsAlike).
		`SELECT NOCOLUMN FROM protein`,
		`SELECT P.NOCOLUMN FROM protein p`,
		`SELECT q.name FROM protein p`,
		`SELECT q.* FROM protein p`,
		`SELECT name FROM protein WHERE id = 9 AND nocolumn = 1`,
		`SELECT name FROM protein WHERE nocolumn = 1 AND id = 9`,
		`SELECT name FROM protein WHERE id = 9 OR NoColumn = 1`,
		`SELECT name FROM protein WHERE 1 = 0 AND p.id = 1`,
		`SELECT p.name FROM protein p JOIN organism o ON p.organism_id = o.nocolumn`,
		`SELECT p.name FROM protein p JOIN organism o ON p.organism_id = x.id`,
		`SELECT p.name FROM protein p JOIN organism o ON p.organism_id = o.id AND o.id = q.id`,
		// An ON sees only the tables joined before it and its own.
		`SELECT p.name FROM protein p JOIN organism o ON p.organism_id = x.id JOIN organism x ON x.id = o.id`,
		`SELECT p.name FROM protein p JOIN organism o ON p.organism_id = x.id LEFT JOIN organism x ON x.id = o.id`,
		`SELECT organism_id, COUNT(*) FROM protein GROUP BY nocolumn`,
		`SELECT organism_id, COUNT(*) FROM protein GROUP BY organism_id HAVING nocolumn > 1`,
		`SELECT organism_id, COUNT(*) FROM protein GROUP BY organism_id HAVING COUNT(NOCOLUMN) > 1`,
		`SELECT name FROM protein ORDER BY nocolumn`,
		`SELECT name FROM protein ORDER BY p.name`,
		`SELECT organism_id, COUNT(*) FROM protein GROUP BY organism_id ORDER BY name`,
		`SELECT name FROM protein WHERE organism_id IN (SELECT nocolumn FROM organism)`,
		`SELECT name FROM protein WHERE organism_id IN (SELECT id FROM organism WHERE species = name)`,
		`SELECT name FROM protein UNION SELECT nocolumn FROM organism`,
		`SELECT name FROM protein WHERE COUNT(*) > 1`,
		`SELECT organism_id, SUM(COUNT(*)) FROM protein GROUP BY organism_id`,
		`SELECT ROUND(mass, 1, 2) FROM protein`,
		`SELECT name FROM protein WHERE id = 9 AND LENGTH(name, 2) > 1`,
		`SELECT SUBSTR(name) FROM protein ORDER BY 1`,
	}
	for _, sql := range bad {
		if _, err := Exec(db, sql); err == nil {
			t.Errorf("Exec(%q) should fail", sql)
		}
		if strings.HasPrefix(sql, "SELECT") {
			failsAlike(t, sql)
		}
	}
}

// failsAlike asserts that sql fails, and with one message, in Prepare and
// in Exec, over the testDB schema empty and with one row per relation.
func failsAlike(t *testing.T, sql string) {
	t.Helper()
	var msgs []string
	for _, rows := range []bool{false, true} {
		db := rel.NewDatabase("test")
		mustExec(t, db, `CREATE TABLE protein (id INTEGER PRIMARY KEY, accession TEXT UNIQUE, name TEXT, organism_id INTEGER, mass REAL)`)
		mustExec(t, db, `CREATE TABLE organism (id INTEGER PRIMARY KEY, species TEXT)`)
		if rows {
			mustExec(t, db, `INSERT INTO organism VALUES (1, 'Homo sapiens')`)
			mustExec(t, db, `INSERT INTO protein VALUES (1, 'P12345', 'hemoglobin alpha', 1, 15258.0)`)
		}
		_, perr := Prepare(db, sql)
		_, eerr := Exec(db, sql)
		msgs = append(msgs, fmt.Sprint(perr), fmt.Sprint(eerr))
	}
	for _, m := range msgs {
		if m == "<nil>" || m != msgs[0] {
			t.Errorf("%q: Prepare and Exec, empty and one-row: %q; want one error from all four", sql, msgs)
			return
		}
	}
}

func TestAmbiguousColumn(t *testing.T) {
	db := testDB(t)
	for _, sql := range []string{
		`SELECT id FROM protein p JOIN organism o ON p.organism_id = o.id`,
		`SELECT p.name FROM protein p JOIN organism o ON p.organism_id = o.id WHERE ID = 1`,
		`SELECT p.name FROM protein p JOIN organism o ON p.organism_id = o.id WHERE p.id = 1 OR id = 2`,
		`SELECT p.name FROM protein p JOIN organism o ON organism_id = id`,
		`SELECT COUNT(*) FROM protein p JOIN organism o ON p.organism_id = o.id GROUP BY id`,
		`SELECT o.id, COUNT(*) FROM protein p JOIN organism o ON p.organism_id = o.id GROUP BY o.id HAVING MAX(id) > 1`,
		`SELECT p.name FROM protein p JOIN organism o ON p.organism_id = o.id ORDER BY id`,
		`SELECT name FROM protein WHERE id IN (SELECT id FROM protein p JOIN organism o ON p.organism_id = o.id)`,
	} {
		if _, err := Exec(db, sql); err == nil || !strings.Contains(err.Error(), "ambiguous column") {
			t.Errorf("Exec(%q) = %v, want an ambiguous-column error", sql, err)
		}
		failsAlike(t, sql)
	}
}

// TestOpenAfterSchemaChange: a plan reads columns at the indexes Prepare
// resolved, so Open fails, and does not panic, when DDL has since
// dropped its table or re-created it with other columns; re-created with
// the same columns, the plan runs.
func TestOpenAfterSchemaChange(t *testing.T) {
	db := testDB(t)
	p, err := Prepare(db, `SELECT name, mass FROM protein WHERE id = 2`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	mustExec(t, db, `DROP TABLE protein`)
	if _, err := p.Open(ctx, db); err == nil || !strings.Contains(err.Error(), "no such table") {
		t.Errorf("Open after DROP = %v, want no such table", err)
	}
	mustExec(t, db, `CREATE TABLE protein (id INTEGER, name TEXT)`)
	mustExec(t, db, `INSERT INTO protein VALUES (2, 'myoglobin')`)
	if _, err := p.Open(ctx, db); err == nil || !strings.Contains(err.Error(), "changed since the statement was prepared") {
		t.Errorf("Open after re-CREATE = %v, want a changed-table error", err)
	}
	if _, err := p.Explain(db); err == nil {
		t.Error("Explain after re-CREATE should fail")
	}
	mustExec(t, db, `DROP TABLE protein`)
	mustExec(t, db, `CREATE TABLE protein (ID INTEGER, Accession TEXT, Name TEXT, organism_id INTEGER, mass REAL)`)
	mustExec(t, db, `INSERT INTO protein VALUES (2, 'P67890', 'myoglobin', 1, 17184.0)`)
	cur, err := p.Open(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	row, err := cur.Next(ctx)
	if err != nil || row[0].AsString() != "myoglobin" {
		t.Errorf("row = %v, %v", row, err)
	}
}

// TestBareColumnOverEmptyAggregate: aggregates over empty input with no
// GROUP BY give one row, and a bare column beside them reads NULL.
func TestBareColumnOverEmptyAggregate(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, `SELECT name, COUNT(*), p.mass FROM protein p WHERE 1 = 0`)
	if len(res.Rows) != 1 || !res.Rows[0][0].IsNull() || res.Rows[0][1].String() != "0" || !res.Rows[0][2].IsNull() {
		t.Errorf("rows = %v, want [NULL 0 NULL]", res.Rows)
	}
}

func TestQuotedIdentifiersAndComments(t *testing.T) {
	db := rel.NewDatabase("t")
	mustExec(t, db, `CREATE TABLE "select" ("key" TEXT)`)
	mustExec(t, db, `INSERT INTO "select" VALUES ('x') -- trailing comment`)
	res := mustExec(t, db, `SELECT "key" FROM "select"`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "x" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestTableStar(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, `SELECT o.* FROM protein p JOIN organism o ON p.organism_id = o.id WHERE p.id = 1`)
	if len(res.Columns) != 2 || res.Columns[0] != "id" {
		t.Errorf("cols = %v", res.Columns)
	}
	if res.Rows[0][1].AsString() != "Homo sapiens" {
		t.Errorf("row = %v", res.Rows[0])
	}
}

func TestEscapedQuoteInString(t *testing.T) {
	db := rel.NewDatabase("t")
	res := mustExec(t, db, `SELECT 'it''s'`)
	if res.Rows[0][0].AsString() != "it's" {
		t.Errorf("got %v", res.Rows[0][0])
	}
}

// Property: LIKE '%' matches everything, and an exact pattern with no
// wildcards matches only itself (case-insensitively).
func TestLikeProperties(t *testing.T) {
	f := func(s string) bool {
		if !compileLike("%").match(s) {
			return false
		}
		return compileLike(s).match(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: COUNT(*) equals the number of inserted rows for any n.
func TestCountMatchesInserts(t *testing.T) {
	f := func(n uint8) bool {
		db := rel.NewDatabase("t")
		if _, err := Exec(db, `CREATE TABLE t (a INTEGER)`); err != nil {
			return false
		}
		for i := 0; i < int(n); i++ {
			if _, err := Exec(db, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i)); err != nil {
				return false
			}
		}
		res, err := Exec(db, `SELECT COUNT(*) FROM t`)
		if err != nil {
			return false
		}
		got, _ := res.Rows[0][0].AsInt()
		return got == int64(n)
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: ORDER BY yields a non-decreasing sequence.
func TestOrderBySorted(t *testing.T) {
	f := func(vals []int16) bool {
		db := rel.NewDatabase("t")
		if _, err := Exec(db, `CREATE TABLE t (a INTEGER)`); err != nil {
			return false
		}
		r := db.Relation("t")
		for _, v := range vals {
			r.Append(rel.Tuple{rel.Int(int64(v))})
		}
		res, err := Exec(db, `SELECT a FROM t ORDER BY a`)
		if err != nil {
			return false
		}
		for i := 1; i < len(res.Rows); i++ {
			if res.Rows[i-1][0].Compare(res.Rows[i][0]) > 0 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
