package seq

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// SmithWaterman is the optimal local alignment of a against b: swScore's
// first best cell in row-major order, traced back over the prefixes
// ending there.
func SmithWaterman(a, b string) Alignment {
	var row []int32
	score, endI, endJ, _, _ := swScore(a, b, &row)
	return traceback(a[:endI], b[:endJ], score, &row)
}

// reverseComplement reverses an ACGT strand and complements its bases.
func reverseComplement(s string) string {
	out := make([]byte, len(s))
	for i := range s {
		out[len(s)-1-i] = "TGCA"[strings.IndexByte("ACGT", s[i])]
	}
	return string(out)
}

func TestSmithWatermanIdentical(t *testing.T) {
	s := "ACGTACGTACGT"
	al := SmithWaterman(s, s)
	if al.Identity != 1.0 {
		t.Errorf("identity = %v", al.Identity)
	}
	if al.Score != len(s)*2 {
		t.Errorf("score = %d want %d", al.Score, len(s)*2)
	}
	if al.AStart != 0 || al.AEnd != len(s) {
		t.Errorf("span = [%d,%d)", al.AStart, al.AEnd)
	}
}

func TestSmithWatermanSubstring(t *testing.T) {
	a := "TTTTTACGTACGTTTTT"
	b := "ACGTACG"
	al := SmithWaterman(a, b)
	if al.Identity != 1.0 {
		t.Errorf("identity = %v", al.Identity)
	}
	if al.BStart != 0 || al.BEnd != len(b) {
		t.Errorf("b span = [%d,%d)", al.BStart, al.BEnd)
	}
	if a[al.AStart:al.AEnd] != "ACGTACG" {
		t.Errorf("aligned region = %q", a[al.AStart:al.AEnd])
	}
}

func TestSmithWatermanMismatchTolerance(t *testing.T) {
	a := "ACGTACGTACGTACGTACGT"
	b := "ACGTACGTTCGTACGTACGT" // one substitution
	al := SmithWaterman(a, b)
	if al.Identity <= 0.9 || al.Identity >= 1.0 {
		t.Errorf("identity = %v; want (0.9, 1.0)", al.Identity)
	}
}

func TestSmithWatermanGap(t *testing.T) {
	a := "ACGTACGTAACGTACGT"
	b := "ACGTACGTACGTACGT" // one deletion relative to a
	al := SmithWaterman(a, b)
	// Must bridge the gap rather than stopping at 8 columns.
	if al.Columns < 16 {
		t.Errorf("alignment columns = %d; want gapped alignment >= 16", al.Columns)
	}
}

func TestSmithWatermanNoSimilarity(t *testing.T) {
	al := SmithWaterman("AAAA", "TTTT")
	if al.Score != 0 || al.Identity != 0 {
		t.Errorf("disjoint alignment = %+v", al)
	}
}

func TestSmithWatermanEmpty(t *testing.T) {
	if al := SmithWaterman("", "ACGT"); al.Score != 0 {
		t.Errorf("empty input score = %d", al.Score)
	}
}

func randomDNA(rng *rand.Rand, n int) string {
	bases := "ACGT"
	b := make([]byte, n)
	for i := range b {
		b[i] = bases[rng.Intn(4)]
	}
	return string(b)
}

// mutate applies point mutations at the given rate.
func mutate(rng *rand.Rand, s string, rate float64) string {
	bases := "ACGT"
	b := []byte(s)
	for i := range b {
		if rng.Float64() < rate {
			b[i] = bases[rng.Intn(4)]
		}
	}
	return string(b)
}

func TestIndexSearchFindsHomolog(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ix := NewIndex(8)
	orig := randomDNA(rng, 300)
	ix.Add("target", orig)
	for i := 0; i < 20; i++ {
		ix.Add("decoy", randomDNA(rng, 300))
	}
	query := mutate(rng, orig, 0.05)
	hits := ix.Search(query, SearchOptions{MinScore: 50})
	if len(hits) == 0 {
		t.Fatal("no hits for 5%-mutated homolog")
	}
	if hits[0].TargetID != "target" {
		t.Errorf("best hit = %q", hits[0].TargetID)
	}
	if hits[0].Alignment.Identity < 0.85 {
		t.Errorf("identity = %v", hits[0].Alignment.Identity)
	}
}

func TestIndexSearchRejectsUnrelated(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ix := NewIndex(10)
	for i := 0; i < 10; i++ {
		ix.Add("decoy", randomDNA(rng, 200))
	}
	query := randomDNA(rng, 200)
	hits := ix.Search(query, SearchOptions{MinScore: 60})
	if len(hits) != 0 {
		t.Errorf("unrelated query got %d hits", len(hits))
	}
}

func TestIndexSeedingPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ix := NewIndex(10)
	orig := randomDNA(rng, 200)
	ix.Add("homolog", orig)
	for i := 0; i < 50; i++ {
		ix.Add("decoy", randomDNA(rng, 200))
	}
	query := mutate(rng, orig, 0.03)
	candidates, _ := ix.CandidateCount(query)
	if candidates >= 25 {
		t.Errorf("seeding should prune most of 51 targets; candidates = %d", candidates)
	}
	if candidates < 1 {
		t.Error("seeding pruned the true homolog")
	}
}

func TestAllPairsMatchesSeededOnStrongHomologs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var queries, targets []Record
	ix := NewIndex(8)
	for i := 0; i < 5; i++ {
		orig := randomDNA(rng, 150)
		targets = append(targets, Record{ID: string(rune('a' + i)), Seq: orig})
		ix.Add(string(rune('a'+i)), orig)
		queries = append(queries, Record{ID: string(rune('A' + i)), Seq: mutate(rng, orig, 0.02)})
	}
	full := AllPairs(queries, targets, SearchOptions{MinScore: 100})
	for _, q := range queries {
		seeded := ix.Search(q.Seq, SearchOptions{MinScore: 100})
		if len(full[q.ID]) == 0 || len(seeded) == 0 {
			t.Fatalf("query %s: full=%d seeded=%d", q.ID, len(full[q.ID]), len(seeded))
		}
		if full[q.ID][0].TargetID != seeded[0].TargetID {
			t.Errorf("query %s: full best %q != seeded best %q",
				q.ID, full[q.ID][0].TargetID, seeded[0].TargetID)
		}
	}
}

// BenchmarkSmithWaterman: the alignment kernel and its traceback on two
// unrelated 240-base strands.
func BenchmarkSmithWaterman(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x, y := randomDNA(rng, 240), randomDNA(rng, 240)
	for i := 0; i < b.N; i++ {
		SmithWaterman(x, y)
	}
}

// Property: alignment score is symmetric for match-only scoring, and
// identity stays within [0,1].
func TestSmithWatermanProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seedA, seedB uint8, lenA, lenB uint8) bool {
		a := randomDNA(rng, int(lenA%60)+1)
		b := randomDNA(rng, int(lenB%60)+1)
		x := SmithWaterman(a, b)
		y := SmithWaterman(b, a)
		if x.Score != y.Score {
			return false
		}
		return x.Identity >= 0 && x.Identity <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: a sequence always aligns to itself with identity 1 and score
// len*match.
func TestSelfAlignmentProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(n uint8) bool {
		s := randomDNA(rng, int(n%100)+1)
		al := SmithWaterman(s, s)
		return al.Identity == 1.0 && al.Score == 2*len(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// parentSmithWaterman is the aligner before the score-only kernel, kept
// as the oracle: the recurrence over the full (n+1)(m+1) direction
// matrix, traced back from the first best cell in row-major order.
func parentSmithWaterman(a, b string) Alignment {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return Alignment{}
	}
	dir := make([]uint8, (n+1)*(m+1))
	prev := make([]int, m+1)
	curr := make([]int, m+1)
	best, bi, bj := 0, 0, 0
	for i := 1; i <= n; i++ {
		curr[0] = 0
		for j := 1; j <= m; j++ {
			sub := mismatch
			if a[i-1] == b[j-1] {
				sub = match
			}
			diag := prev[j-1] + sub
			up := prev[j] + gap
			left := curr[j-1] + gap
			v, d := 0, uint8(0)
			if diag > v {
				v, d = diag, 1
			}
			if up > v {
				v, d = up, 2
			}
			if left > v {
				v, d = left, 3
			}
			curr[j] = v
			dir[i*(m+1)+j] = d
			if v > best {
				best, bi, bj = v, i, j
			}
		}
		prev, curr = curr, prev
	}
	if best == 0 {
		return Alignment{}
	}
	matches, cols := 0, 0
	i, j := bi, bj
	for i > 0 && j > 0 {
		d := dir[i*(m+1)+j]
		if d == 0 {
			break
		}
		cols++
		switch d {
		case 1:
			if a[i-1] == b[j-1] {
				matches++
			}
			i--
			j--
		case 2:
			i--
		case 3:
			j--
		}
	}
	al := Alignment{Score: best, AStart: i, AEnd: bi, BStart: j, BEnd: bj, Matches: matches, Columns: cols}
	if cols > 0 {
		al.Identity = float64(matches) / float64(cols)
	}
	return al
}

// orientPairs align with equal score but different identity in the two
// orientations; the same pairs seed linkdisc's goldens.
var orientPairs = [][2]string{
	{"GCGCCGCACAGAAGTAATTCAAGTGACAAGCCGCCCTCATAAACC", "GCGCCACAGAAAGTAATCAAGTGACAAGCCGCCCTCATAAACC"},
	{"GCAACTCTCAGGTCCTCGTTTGAATCTGTACTTTGATACGTC", "GCAACTCAGAGTCCTCGTTTCGAATCTGCACTTTGATACGTGC"},
}

// randomOver draws n characters of alphabet: two letters make many
// equal-score cells, the protein alphabet few.
func randomOver(rng *rand.Rand, alphabet string, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

// indels copies s with substitutions, deletions and insertions.
func indels(rng *rand.Rand, s string) string {
	var b []byte
	for i := 0; i < len(s); i++ {
		switch x := rng.Float64(); {
		case x < 0.06:
			b = append(b, "ACGT"[rng.Intn(4)])
		case x < 0.09:
		case x < 0.12:
			b = append(b, s[i], "ACGT"[rng.Intn(4)])
		default:
			b = append(b, s[i])
		}
	}
	return string(b)
}

// TestKernelMatchesParentAligner: on random DNA, protein and two-letter
// pairs, gapped copies, ties and empty inputs, in both orientations, the
// kernel's (score, endI, endJ) is the parent's (Score, AEnd, BEnd) — the
// first best cell in row-major order — and the prefix traceback is the
// parent's full-matrix alignment; its (revI, revJ) is the parent's end
// cell of the transposed pair, whose alignment the prefix traceback of
// the swapped prefixes is.
func TestKernelMatchesParentAligner(t *testing.T) {
	var row []int32
	check := func(a, b string) {
		t.Helper()
		for _, p := range [][2]string{{a, b}, {b, a}} {
			want, rev := parentSmithWaterman(p[0], p[1]), parentSmithWaterman(p[1], p[0])
			score, endI, endJ, revI, revJ := swScore(p[0], p[1], &row)
			if score != want.Score || endI != want.AEnd || endJ != want.BEnd {
				t.Fatalf("swScore(%q, %q) = (%d, %d, %d), parent (%d, %d, %d)",
					p[0], p[1], score, endI, endJ, want.Score, want.AEnd, want.BEnd)
			}
			if revI != rev.BEnd || revJ != rev.AEnd {
				t.Fatalf("swScore(%q, %q) reverse end (%d, %d), parent of the swapped pair ends at (%d, %d)",
					p[0], p[1], revI, revJ, rev.BEnd, rev.AEnd)
			}
			if got := SmithWaterman(p[0], p[1]); got != want {
				t.Fatalf("SmithWaterman(%q, %q) = %+v, parent %+v", p[0], p[1], got, want)
			}
			if got := traceback(p[1][:revJ], p[0][:revI], score, &row); got != rev {
				t.Fatalf("reverse traceback of (%q, %q) = %+v, parent %+v", p[0], p[1], got, rev)
			}
		}
	}
	for _, p := range [][2]string{
		{"", ""}, {"", "ACGT"}, {"AAAA", "TTTT"},
		{"ACGTACGT", "ACGT"}, {"AAAAAAAA", "AAAA"}, {"ACACACAC", "CACA"}, {"ACGTTTACGT", "ACGT"},
	} {
		check(p[0], p[1])
	}
	for _, p := range orientPairs {
		check(p[0], p[1])
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 400; i++ {
		alphabet := []string{"ACGT", "AC", "ACDEFGHIKLMNPQRSTVWY"}[i%3]
		a := randomOver(rng, alphabet, rng.Intn(80))
		check(a, randomOver(rng, alphabet, rng.Intn(80)))
		check(a, indels(rng, a))
	}
}

// TestScoreKernelAllocatesNothing: once the scratch row fits, scoring a
// pair — the fate of every pair below MinScore — allocates nothing.
func TestScoreKernelAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a, b := randomDNA(rng, 200), randomDNA(rng, 240)
	row := make([]int32, len(b))
	if n := testing.AllocsPerRun(20, func() { swScore(a, b, &row) }); n != 0 {
		t.Errorf("swScore allocated %.1f times per pair", n)
	}
}

// TestCrossSearchAllocsDoNotGrowWithAlignedPairs: one query against two
// indexes, one where 10 records are aligned and one where 100 are, all
// scoring below MinScore. The second search may allocate a handful more
// for slice doubling, but not one more per added pair — a check the
// seq_score_pair budget cannot make, since only 82 of its 3,745 seeded
// pairs are aligned.
func TestCrossSearchAllocsDoNotGrowWithAlignedPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	query := randomDNA(rng, 200)
	opts := SearchOptions{MinScore: 1 << 30}
	allocs := func(n int) float64 {
		ix := NewIndex(8)
		for i := 0; i < n; i++ {
			ix.Add(fmt.Sprintf("t%d", i), mutate(rng, query, 0.05))
		}
		var w Work
		if pairs := ix.CrossSearch(query, opts, &w); w.Aligned != n || len(pairs) != 0 {
			t.Fatalf("%d records: %d aligned, %d pairs; want %d aligned, none reaching MinScore", n, w.Aligned, len(pairs), n)
		}
		return testing.AllocsPerRun(20, func() { ix.CrossSearch(query, opts, &w) })
	}
	few, many := allocs(10), allocs(100)
	t.Logf("allocs per search: %.1f with 10 aligned pairs, %.1f with 100", few, many)
	if many-few > 10 {
		t.Errorf("90 more aligned pairs cost %.1f more allocations per search; want at most a handful", many-few)
	}
}

// TestCrossSearchIsSearchFromEachEnd: CrossSearch's Fwd alignments are
// what Search of the query finds, its Rev alignments what Search of each
// target over an index of the queries finds — on gapped copies, reverse
// complements and pairs whose traceback depends on orientation.
func TestCrossSearchIsSearchFromEachEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var queries, targets []string
	for i := 0; i < 30; i++ {
		s := randomDNA(rng, 40+rng.Intn(60))
		c := indels(rng, s)
		if i%3 == 0 {
			c = strings.ToLower(reverseComplement(c))
		}
		queries, targets = append(queries, s), append(targets, c)
	}
	for _, p := range orientPairs {
		queries, targets = append(queries, p[0]), append(targets, p[1])
	}
	index := func(seqs []string) *Index {
		ix := NewIndex(6)
		for i, s := range seqs {
			ix.Add(fmt.Sprint(i), s)
		}
		return ix
	}
	qix, tix := index(queries), index(targets)
	opts := SearchOptions{MinScore: 30}
	fwd := make([][]Hit, len(queries))
	rev := make([][]Hit, len(targets))
	orientDiffers := false
	var w Work
	for qi, q := range queries {
		for _, p := range tix.CrossSearch(q, opts, &w) {
			fwd[qi] = append(fwd[qi], Hit{TargetID: fmt.Sprint(p.Target), Alignment: p.Fwd})
			rev[p.Target] = append(rev[p.Target], Hit{TargetID: fmt.Sprint(qi), Alignment: p.Rev})
			orientDiffers = orientDiffers || p.Fwd.Identity != p.Rev.Identity
		}
	}
	compare := func(dir string, i int, got []Hit, want []Hit) {
		t.Helper()
		got = Rank(got)
		if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Errorf("%s %d:\n got  %+v\n want %+v", dir, i, got, want)
		}
	}
	for qi, q := range queries {
		compare("query", qi, fwd[qi], tix.Search(q, opts))
	}
	for ti, s := range targets {
		compare("target", ti, rev[ti], qix.Search(s, opts))
	}
	if !orientDiffers {
		t.Error("no pair whose identity depends on orientation")
	}
}
