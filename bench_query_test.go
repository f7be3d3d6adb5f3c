// Query-engine benchmarks (ROADMAP: cost-based optimizer + morsel
// parallelism): morsel-parallel scans and joins against their serial
// plans, and the greedy join reorderer against the parse-order plan of
// PR 5 over the 200-protein corpus. Run with:
//
//	go test -bench 'ParallelScan|ParallelJoin|JoinReorder' -benchtime 1x .
//
// The tracked, end-to-end numbers come from bench/ (bash bench/run.sh).
package repro

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/rel"
	"repro/internal/sqlx"
)

// parallelQueryDB caches a fact/dimension pair big enough that eligible
// scans split into many morsels (the warehouse relations are all
// smaller than one morsel).
var parallelQueryDB *rel.Database

const parallelFactRows = 16*1024 + 17

func bigQueryDB(b *testing.B) *rel.Database {
	b.Helper()
	if parallelQueryDB == nil {
		db := rel.NewDatabase("bench")
		intCol := func(name string) rel.Column { return rel.Column{Name: name, Kind: rel.KindInt} }
		fact := db.Create("fact", rel.NewSchema(intCol("id"), intCol("grp"), intCol("dim_id"),
			rel.Column{Name: "note", Kind: rel.KindString}))
		dim := db.Create("dim", rel.NewSchema(intCol("id"),
			rel.Column{Name: "name", Kind: rel.KindString}))
		for i := 0; i < 64; i++ {
			dim.Append(rel.Tuple{rel.Int(int64(i)), rel.Str(fmt.Sprintf("dim %d", i))})
		}
		for i := 0; i < parallelFactRows; i++ {
			fact.Append(rel.Tuple{rel.Int(int64(i)), rel.Int(int64(i % 7)),
				rel.Int(int64(i % 64)), rel.Str(fmt.Sprintf("note %d", i%13))})
		}
		parallelQueryDB = db
	}
	return parallelQueryDB
}

// parallelWorkerCounts: serial, plus the host's parallel degree (at
// least 2 so the exchange machinery is exercised even on one CPU).
func parallelWorkerCounts() []int {
	n := runtime.GOMAXPROCS(0)
	if n < 2 {
		n = 2
	}
	return []int{1, n}
}

// benchParallelQuery opens and drains one plan per iteration at the
// given parallelism and checks the row count stays exact.
func benchParallelQuery(b *testing.B, db *rel.Database, q string, workers, wantRows int) {
	b.Helper()
	ctx := context.Background()
	plan, err := sqlx.Prepare(db, q)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur, err := plan.OpenParallel(ctx, db, workers)
		if err != nil {
			b.Fatal(err)
		}
		rows := 0
		for {
			_, err := cur.Next(ctx)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			rows++
		}
		cur.Close()
		if rows != wantRows {
			b.Fatalf("got %d rows, want %d", rows, wantRows)
		}
	}
}

func countFact(pred func(i int) bool) int {
	n := 0
	for i := 0; i < parallelFactRows; i++ {
		if pred(i) {
			n++
		}
	}
	return n
}

const (
	parallelScanQuery = `SELECT id, note FROM fact WHERE grp = 3`
	parallelJoinQuery = `SELECT f.id, d.name FROM fact f JOIN dim d ON f.dim_id = d.id WHERE d.id < 32`
	distinctQuery     = `SELECT DISTINCT grp, dim_id FROM fact`
	groupByQuery      = `SELECT grp, COUNT(*), SUM(id) FROM fact GROUP BY grp`
)

// BenchmarkParallelScan: a filtered scan over a 16-morsel fact table,
// serial vs morsel-parallel. Rows come back bit-identical in both modes
// (TestParallelMatchesSerial pins that); here only wall time differs.
func BenchmarkParallelScan(b *testing.B) {
	db := bigQueryDB(b)
	want := countFact(func(i int) bool { return i%7 == 3 })
	for _, w := range parallelWorkerCounts() {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			benchParallelQuery(b, db, parallelScanQuery, w, want)
		})
	}
}

// BenchmarkParallelJoin: a hash join probing the shared build side from
// every morsel worker, serial vs morsel-parallel.
func BenchmarkParallelJoin(b *testing.B) {
	db := bigQueryDB(b)
	want := countFact(func(i int) bool { return i%64 < 32 })
	for _, w := range parallelWorkerCounts() {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			benchParallelQuery(b, db, parallelJoinQuery, w, want)
		})
	}
}

// BenchmarkDistinct: multi-column DISTINCT over the whole fact table —
// the row-deduplication hash path (448 distinct (grp, dim_id) pairs out
// of 16K+ rows), where the zero-allocation tuple set shows up directly
// in allocs/op.
func BenchmarkDistinct(b *testing.B) {
	db := bigQueryDB(b)
	benchParallelQuery(b, db, distinctQuery, 1, 7*64)
}

// BenchmarkGroupBy: hash aggregation over the whole fact table (7
// groups), exercising the composite-key group table.
func BenchmarkGroupBy(b *testing.B) {
	db := bigQueryDB(b)
	benchParallelQuery(b, db, groupByQuery, 1, 7)
}

// joinReorderQuery names the filtered table in the middle of the chain,
// so the parse-order plan (PR 5 behaviour) scans all 400 dbref rows
// first while the reordered plan starts from the one protein the
// accession filter selects.
const joinReorderQuery = `
	SELECT d.ref_value, s.pdb_code
	FROM swissprot_dbref d
	JOIN swissprot_protein p ON d.protein_id = p.protein_id
	JOIN pdb_structure s ON s.structure_id = p.protein_id
	WHERE p.accession = 'P10042'`

// BenchmarkJoinReorder: the 3-way join over the 200-protein corpus with
// the cost-based reorderer off (parse order) and on. benchCursorQuery
// reports scanned-tuples/op, where the plan change shows up even when
// timings jitter.
func BenchmarkJoinReorder(b *testing.B) {
	indexed, _ := indexedAndScanWarehouses(b)
	defer func() { sqlx.ReorderJoins = true }()
	b.Run("parse-order", func(b *testing.B) {
		sqlx.ReorderJoins = false
		benchCursorQuery(b, indexed, joinReorderQuery, 2)
	})
	b.Run("reordered", func(b *testing.B) {
		sqlx.ReorderJoins = true
		benchCursorQuery(b, indexed, joinReorderQuery, 2)
	})
}
