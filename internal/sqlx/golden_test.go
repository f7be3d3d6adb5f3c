package sqlx

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/rel"
)

// The golden suite freezes the executor's observable behaviour — the
// EXPLAIN plan, rows, their order, and the stored-tuple read count — as
// plain-text files under testdata/golden. The rows were recorded from the
// tuple-at-a-time executor this package once carried beside the batch
// engine, so the files are checked in, never regenerated: a changed plan,
// row or count is a behaviour change to review, and a new shape is added
// by writing its file by hand from a reviewed run.
//
// File format: '#' comment lines, then the headers — one "plan:" line
// per line of Plan.Explain's output (compared exactly), "query:",
// "earlystop:", "scanned:", "columns:" and, last, "rows:" — then one line
// per row with tab-separated values rendered by goldenValue.
//
// testdata/explain_analyze.txt freezes EXPLAIN ANALYZE of every golden
// query the same way (see TestExplainAnalyzeGolden).

// goldenDB is parallelDB plus idim, a copy of dim with a primary-key
// hash index, so index scans and index-probe joins are covered too, and
// motif, a small string relation for LIKE.
func goldenDB(t testing.TB) *rel.Database {
	db := parallelDB(t)
	idim := db.Create("idim", rel.NewSchema(intCol("id"),
		rel.Column{Name: "name", Kind: rel.KindString}))
	idim.PrimaryKey = "id"
	idim.EnsureIndexes()
	for _, tup := range db.Relation("dim").Tuples {
		idim.Append(tup)
	}
	addMotifRelation(db)
	return db
}

// addMotifRelation adds motif(id, seq, pat): 32 pseudo-random DNA
// sequences, every third one in mixed case, then a NULL sequence and
// four non-ASCII rows (the Kelvin sign, which lowers to ASCII k; İ,
// which lowers to three bytes; É; é). pat cycles through six patterns
// and NULL, for LIKE with a column on its right.
func addMotifRelation(db *rel.Database) {
	motif := db.Create("motif", rel.NewSchema(intCol("id"),
		rel.Column{Name: "seq", Kind: rel.KindString},
		rel.Column{Name: "pat", Kind: rel.KindString}))
	pats := []string{"%acgt%", "A_G%", "", "%T", "_C%A", "%g_a%", "%%a%%"}
	seqs := make([]string, 0, 37)
	x := uint32(7)
	for i := 0; i < 32; i++ {
		b := make([]byte, 12+i%16)
		for j := range b {
			x = x*1664525 + 1013904223
			b[j] = "ACGT"[x>>30]
			if i%3 == 1 && j%2 == 1 {
				b[j] += 'a' - 'A'
			}
		}
		seqs = append(seqs, string(b))
	}
	seqs = append(seqs, "", "Kelvin \u212a acgta", "İstanbul", "ÉCOLE acGTa", "café ACGTA")
	for i, s := range seqs {
		seq, pat := rel.Str(s), rel.Str(pats[i%len(pats)])
		if s == "" {
			seq = rel.Null()
		}
		if pats[i%len(pats)] == "" {
			pat = rel.Null()
		}
		motif.Append(rel.Tuple{rel.Int(int64(i)), seq, pat})
	}
}

// goldenCase is one parsed golden file.
type goldenCase struct {
	plan  []string
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
		case "plan":
			g.plan = append(g.plan, val)
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
	if g.query == "" || len(g.plan) == 0 || len(g.rows) != nrows {
		t.Fatalf("%s: query %q, %d plan lines, header says %d rows, file has %d",
			path, g.query, len(g.plan), nrows, len(g.rows))
	}
	return g
}

// goldenFiles lists the golden files in name order.
func goldenFiles(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 39 {
		t.Fatalf("found %d golden files, want the 27 original shapes plus at least 12 added ones", len(files))
	}
	return files
}

func goldenName(path string) string {
	return strings.TrimSuffix(filepath.Base(path), ".txt")
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

// TestGolden checks every golden file: the EXPLAIN text exactly; at
// workers 1, 2 and 4 identical columns, rows and row order always; the
// read count at workers=1, and at workers>1 too unless the query stops
// early over parallel morsels.
func TestGolden(t *testing.T) {
	db := goldenDB(t)
	for _, path := range goldenFiles(t) {
		g := readGolden(t, path)
		t.Run(goldenName(path), func(t *testing.T) {
			plan, err := Prepare(db, g.query)
			if err != nil {
				t.Fatal(err)
			}
			text, err := plan.Explain(db)
			if err != nil {
				t.Fatal(err)
			}
			if want := strings.Join(g.plan, "\n") + "\n"; text != want {
				t.Errorf("plan:\n%s\ngolden:\n%s", text, want)
			}
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

// analyzeGoldenPath is the EXPLAIN ANALYZE freeze of the golden queries.
var analyzeGoldenPath = filepath.Join("testdata", "explain_analyze.txt")

// analyzeCase is one entry of the freeze: the query and its masked
// EXPLAIN ANALYZE text.
type analyzeCase struct {
	query, text string
}

// readAnalyzeGolden parses the freeze into its entries, keyed
// "<golden name> workers=<n>". Each entry is a "== <key>" line, a
// "query:" line and the text; '#' lines before the first entry and
// blank lines between entries are skipped.
func readAnalyzeGolden(t *testing.T) map[string]*analyzeCase {
	t.Helper()
	data, err := os.ReadFile(analyzeGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	cases := make(map[string]*analyzeCase)
	var cur *analyzeCase
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.HasPrefix(line, "== "):
			cur = &analyzeCase{}
			cases[strings.TrimPrefix(line, "== ")] = cur
		case cur == nil || line == "":
		case cur.query == "":
			q, ok := strings.CutPrefix(line, "query: ")
			if !ok {
				t.Fatalf("%s: want a query line, got %q", analyzeGoldenPath, line)
			}
			cur.query = q
		default:
			cur.text += line + "\n"
		}
	}
	return cases
}

var (
	analyzeTime    = regexp.MustCompile(`time=[^ \]]+`)
	analyzeSummary = regexp.MustCompile(`rows in \S+ \((\d+) tuples scanned, \d+ heap allocs\)`)
)

// maskAnalyze blanks what varies from run to run in EXPLAIN ANALYZE
// text: operator times, the elapsed time and the heap-alloc count.
func maskAnalyze(text string) string {
	text = analyzeTime.ReplaceAllString(text, "time=…")
	return analyzeSummary.ReplaceAllString(text, "rows in … ($1 tuples scanned, … heap allocs)")
}

// TestExplainAnalyzeGolden replays the freeze: the masked EXPLAIN
// ANALYZE text of every golden query at workers 1 and, unless the query
// stops early over parallel morsels, at workers 4 — every operator's
// estimate, actual rows and batches, the Gather exchange, and the
// summary's row and read counts, compared exactly.
func TestExplainAnalyzeGolden(t *testing.T) {
	frozen := readAnalyzeGolden(t)
	db := goldenDB(t)
	replayed := 0
	for _, path := range goldenFiles(t) {
		g := readGolden(t, path)
		workers := []int{1}
		if !g.earlyStop {
			workers = append(workers, 4)
		}
		for _, w := range workers {
			key := fmt.Sprintf("%s workers=%d", goldenName(path), w)
			want, ok := frozen[key]
			if !ok {
				t.Errorf("%s: missing from %s", key, analyzeGoldenPath)
				continue
			}
			replayed++
			if want.query != g.query {
				t.Errorf("%s: query %q, golden %q", key, want.query, g.query)
				continue
			}
			plan, err := Prepare(db, g.query)
			if err != nil {
				t.Fatal(err)
			}
			text, err := plan.ExplainAnalyze(context.Background(), db, w)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if got := maskAnalyze(text); got != want.text {
				t.Errorf("%s:\n%s\nfrozen:\n%s", key, got, want.text)
			}
		}
	}
	if replayed != len(frozen) {
		t.Errorf("%s has %d entries, the goldens replay %d", analyzeGoldenPath, len(frozen), replayed)
	}
}
