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
	SearchBuildDoc float64 `json:"search_build_doc"`
	LikeScan       int64   `json:"like_scan"`
	FilterScan     int64   `json:"filter_scan"`
	IndexJoin      int64   `json:"index_join"`

	HashJoinBytes   int64 `json:"hash_join_bytes"`
	DistinctBytes   int64 `json:"distinct_bytes"`
	GroupByBytes    int64 `json:"group_by_bytes"`
	LikeScanBytes   int64 `json:"like_scan_bytes"`
	FilterScanBytes int64 `json:"filter_scan_bytes"`
	IndexJoinBytes  int64 `json:"index_join_bytes"`
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
// are aligned, so an aligner allocating per aligned pair would add only
// 0.02 and pass here: internal/seq's
// TestCrossSearchAllocsDoNotGrowWithAlignedPairs holds CrossSearch to a
// handful of allocations from 10 to 100 aligned pairs, and
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

// TestSearchAllocBudget holds building a source's search index to its
// allocations per indexed value (BenchmarkSearchBuild's allocs/doc). A
// term is copied only when first seen and a value is stored without
// pointers of its own, so the figure is the growth of the index's
// slices and maps; an index that allocates per token again multiplies
// it.
func TestSearchAllocBudget(t *testing.T) {
	budget := loadAllocBudget(t)
	if budget.SearchBuildDoc <= 0 {
		t.Fatal("search_build_doc: missing budget in ALLOC_budget.json")
	}
	got := testing.Benchmark(BenchmarkSearchBuild).Extra["allocs/doc"]
	t.Logf("search_build_doc: %.3f allocs/doc (budget %.2f)", got, budget.SearchBuildDoc)
	if got <= 0 || got > budget.SearchBuildDoc {
		t.Errorf("search_build_doc: %.3f allocs/doc outside (0, %.2f]", got, budget.SearchBuildDoc)
	}
}

// TestQueryAllocBudget measures allocs/op and bytes/op for the
// hash-join, DISTINCT, GROUP BY, LIKE-scan, filtered-scan and index-join
// benchmarks
// and fails if either exceeds its checked-in budget. Each shape runs at
// workers 1 and 2: at 2 every one of them scans more than one morsel, so
// the exchange runs. The allocs/op ceilings hold at workers 1, where the
// count is deterministic modulo GC noise; the bytes/op ceilings hold at
// both, so a scan, join or projection that stops recycling its batch
// memory — serially or behind the exchange — fails.
func TestQueryAllocBudget(t *testing.T) {
	budget := loadAllocBudget(t)

	var db *rel.Database
	testing.Benchmark(func(b *testing.B) { db = bigQueryDB(b) })
	joinWant := countFact(func(i int) bool { return i%64 < 32 })

	check := func(name string, db *rel.Database, q string, wantRows int, maxAllocs, maxBytes int64) {
		if maxAllocs <= 0 || maxBytes <= 0 {
			t.Fatalf("%s: missing budget in ALLOC_budget.json", name)
		}
		for _, workers := range []int{1, 2} {
			r := testing.Benchmark(func(b *testing.B) { benchParallelQuery(b, db, q, workers, wantRows) })
			t.Logf("%s workers=%d: %d allocs/op (budget %d at workers=1), %d B/op (budget %d)",
				name, workers, r.AllocsPerOp(), maxAllocs, r.AllocedBytesPerOp(), maxBytes)
			if workers == 1 && r.AllocsPerOp() > maxAllocs {
				t.Errorf("%s: %d allocs/op exceeds budget %d — the zero-allocation hash path regressed",
					name, r.AllocsPerOp(), maxAllocs)
			}
			if r.AllocedBytesPerOp() > maxBytes {
				t.Errorf("%s workers=%d: %d B/op exceeds budget %d — batch memory is no longer recycled",
					name, workers, r.AllocedBytesPerOp(), maxBytes)
			}
		}
	}
	check("hash-join", db, parallelJoinQuery, joinWant, budget.HashJoin, budget.HashJoinBytes)
	check("distinct", db, distinctQuery, 7*64, budget.Distinct, budget.DistinctBytes)
	check("group-by", db, groupByQuery, 7, budget.GroupBy, budget.GroupByBytes)
	check("like-scan", likeDB(), likeScanQuery, 1, budget.LikeScan, budget.LikeScanBytes)
	check("filter-scan", filterDB(), filterScanQuery, 1, budget.FilterScan, budget.FilterScanBytes)
	check("index-join", indexJoinDB(), indexJoinQuery, 1, budget.IndexJoin, budget.IndexJoinBytes)
}
