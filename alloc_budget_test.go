// Allocation-budget regression gates for the vectorized executor's
// zero-allocation hash paths and LIKE scan, for duplicate detection and
// for sequence and text link discovery. The batch
// engine cut hash-join, DISTINCT, and GROUP BY from tens of thousands of
// allocs/op (string keys + map[string][]Tuple) to roughly a hundred;
// ALLOC_budget.json pins ceilings with headroom so a regression back
// toward per-row (or per-compared-pair) allocation fails CI instead of
// silently landing.
package repro

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/rel"
)

// allocBudget is ALLOC_budget.json.
type allocBudget struct {
	HashJoin       int64   `json:"hash_join"`
	Distinct       int64   `json:"distinct"`
	GroupBy        int64   `json:"group_by"`
	DupScorePair   float64 `json:"dup_score_pair"`
	SeqScorePair   float64 `json:"seq_score_pair"`
	TextComparison float64 `json:"text_links_comparison"`
	LikeScan       int64   `json:"like_scan"`
	FilterScan     int64   `json:"filter_scan"`
}

func loadAllocBudget(t *testing.T) allocBudget {
	t.Helper()
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	if testing.Short() {
		t.Skip("skipping alloc benchmarks in -short mode")
	}
	raw, err := os.ReadFile("ALLOC_budget.json")
	if err != nil {
		t.Fatal(err)
	}
	var budget allocBudget
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatal(err)
	}
	return budget
}

// TestDupAllocBudget holds duplicate detection to its allocations per
// compared pair (BenchmarkDupFindNew's allocs/pair, workers=1), for
// sequences compared by q-gram overlap and for short reads compared by
// Jaro-Winkler. Scoring a prepared pair allocates nothing, so the figure
// is the per-record set-up spread over the pairs; a scorer that goes back
// to deriving forms per comparison, or a Jaro that allocates its match
// sets, multiplies it.
func TestDupAllocBudget(t *testing.T) {
	budget := loadAllocBudget(t)
	if budget.DupScorePair <= 0 {
		t.Fatal("dup_score_pair: missing budget in ALLOC_budget.json")
	}
	for _, c := range dupFindNewCases {
		got := testing.Benchmark(func(b *testing.B) { benchDupFindNew(b, c.minLen) }).Extra["allocs/pair"]
		t.Logf("dup_score_pair %s: %.3f allocs/pair (budget %.2f)", c.name, got, budget.DupScorePair)
		if got <= 0 || got > budget.DupScorePair {
			t.Errorf("dup_score_pair %s: %.3f allocs/pair outside (0, %.2f]", c.name, got, budget.DupScorePair)
		}
	}
}

// TestSeqAllocBudget holds sequence link discovery to its allocations
// per seeded pair (BenchmarkSeqLinks' allocs/pair, workers=1): the
// figure is per-tuple and per-query set-up, and seeding that allocates
// per seeded pair adds at least one. Only 82 of the 3,745 seeded pairs
// are aligned, so an aligner allocating per pair would add little here;
// TestScoreKernelAllocatesNothing holds the kernel to none.
func TestSeqAllocBudget(t *testing.T) {
	budget := loadAllocBudget(t)
	if budget.SeqScorePair <= 0 {
		t.Fatal("seq_score_pair: missing budget in ALLOC_budget.json")
	}
	got := testing.Benchmark(BenchmarkSeqLinks).Extra["allocs/pair"]
	t.Logf("seq_score_pair: %.3f allocs/pair (budget %.2f)", got, budget.SeqScorePair)
	if got <= 0 || got > budget.SeqScorePair {
		t.Errorf("seq_score_pair: %.3f allocs/pair outside (0, %.2f]", got, budget.SeqScorePair)
	}
}

// TestTextAllocBudget holds text link discovery to its allocations per
// candidate comparison (BenchmarkTextLinksAppend's allocs/comparison,
// workers=1). A registered source's forms are built once and a candidate
// is scored by scatter-gather over prepared weights, so the figure is
// per-batch set-up; a channel that rescans a registered source per call
// again, or a scorer that allocates per comparison, multiplies it.
func TestTextAllocBudget(t *testing.T) {
	budget := loadAllocBudget(t)
	if budget.TextComparison <= 0 {
		t.Fatal("text_links_comparison: missing budget in ALLOC_budget.json")
	}
	got := testing.Benchmark(BenchmarkTextLinksAppend).Extra["allocs/comparison"]
	t.Logf("text_links_comparison: %.3f allocs/comparison (budget %.3f)", got, budget.TextComparison)
	if got <= 0 || got > budget.TextComparison {
		t.Errorf("text_links_comparison: %.3f allocs/comparison outside (0, %.3f]", got, budget.TextComparison)
	}
}

// TestQueryAllocBudget measures allocs/op for the hash-join, DISTINCT,
// GROUP BY, LIKE-scan and filtered-scan benchmarks (workers=1, so the numbers are
// deterministic modulo GC noise) and fails if any exceeds its checked-in
// budget.
func TestQueryAllocBudget(t *testing.T) {
	budget := loadAllocBudget(t)

	var db *rel.Database
	testing.Benchmark(func(b *testing.B) { db = bigQueryDB(b) })
	joinWant := countFact(func(i int) bool { return i%64 < 32 })

	check := func(name string, db *rel.Database, q string, wantRows int, max int64) {
		if max <= 0 {
			t.Fatalf("%s: missing budget in ALLOC_budget.json", name)
		}
		r := testing.Benchmark(func(b *testing.B) { benchParallelQuery(b, db, q, 1, wantRows) })
		t.Logf("%s: %d allocs/op (budget %d)", name, r.AllocsPerOp(), max)
		if r.AllocsPerOp() > max {
			t.Errorf("%s: %d allocs/op exceeds budget %d — the zero-allocation hash path regressed",
				name, r.AllocsPerOp(), max)
		}
	}
	check("hash-join", db, parallelJoinQuery, joinWant, budget.HashJoin)
	check("distinct", db, distinctQuery, 7*64, budget.Distinct)
	check("group-by", db, groupByQuery, 7, budget.GroupBy)
	check("like-scan", likeDB(), likeScanQuery, 1, budget.LikeScan)
	check("filter-scan", filterDB(), filterScanQuery, 1, budget.FilterScan)
}
