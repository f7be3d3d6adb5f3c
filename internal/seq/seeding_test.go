package seq

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// seedOracle is candidates' rule by brute force for one pair of
// upper-cased strands: every pair of equal k-mers by offset is a hit. The
// pair is seeded if its hits cover minSeeds distinct k-mers, and aligned
// if it is seeded and either two of its hits lie on one diagonal at least
// k apart (twoHit) or its distinct k-mers reach chanceSeeds (chance), over
// 4 letters if both strands are over ACGTUN, else over 20.
func seedOracle(q, t string, k, minSeeds int) (seeded, twoHit, chance bool) {
	type hit struct{ i, j int }
	var hits []hit
	shared := map[string]bool{}
	at := map[string][]int{} // t's offsets of each k-mer
	for j := 0; j+k <= len(t); j++ {
		at[t[j:j+k]] = append(at[t[j:j+k]], j)
	}
	for i := 0; i+k <= len(q); i++ {
		for _, j := range at[q[i:i+k]] {
			hits = append(hits, hit{i, j})
			shared[q[i:i+k]] = true
		}
	}
	if len(shared) < minSeeds {
		return false, false, false
	}
	for _, a := range hits {
		for _, b := range hits {
			twoHit = twoHit || b.j-b.i == a.j-a.i && b.i >= a.i+k
		}
	}
	alpha := 20
	if strings.Trim(q+t, "ACGTUN") == "" {
		alpha = 4
	}
	return true, twoHit, len(shared) >= chanceSeeds(len(q), len(t), k, alpha, minSeeds)
}

// chanceSeeds is the least s >= minSeeds with P[Poisson(λ) >= s] <=
// seedChance, λ = (n-k+1)(m-k+1)/alpha^k, from the upper tail's terms: a
// second derivation of the threshold beatsChance tests.
func chanceSeeds(n, m, k, alpha, minSeeds int) int {
	lambda := float64(n-k+1) * float64(m-k+1) / math.Pow(float64(alpha), float64(k))
	tail := func(s int) float64 {
		sum := 0.0
		for x := s; ; x++ {
			lg, _ := math.Lgamma(float64(x + 1))
			term := math.Exp(-lambda + float64(x)*math.Log(lambda) - lg)
			sum += term
			if float64(x) > lambda && term < 1e-20 {
				return sum
			}
		}
	}
	// The least s in [minSeeds, hi] with tail(s) <= seedChance, by
	// bisection: the tail falls as s grows.
	lo, hi := minSeeds, max(minSeeds, int(2*lambda)+40)
	for lo < hi {
		if mid := (lo + hi) / 2; tail(mid) <= seedChance {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// rearranged copies s with its halves swapped at a random cut: its k-mers
// are shared, on two diagonals.
func rearranged(rng *rand.Rand, s string) string {
	cut := rng.Intn(len(s) + 1)
	return s[cut:] + s[:cut]
}

// withBytes writes U, N or a lower-case letter over some of s's bytes.
func withBytes(rng *rand.Rand, s string) string {
	b := []byte(s)
	for i := range b {
		if rng.Intn(12) == 0 {
			b[i] = "UNacgu"[rng.Intn(6)]
		}
	}
	return string(b)
}

// seedingCorpus draws strands short and long with planted copies of
// their neighbours: substituted, gapped, rearranged and with U/N bytes.
func seedingCorpus(rng *rand.Rand, count int) (queries, targets []string) {
	for len(queries) < count {
		n := 8 + rng.Intn(30)
		if rng.Intn(2) == 0 {
			n = 100 + rng.Intn(300)
		}
		s := randomDNA(rng, n)
		var c string
		switch rng.Intn(6) {
		case 0:
			c = randomDNA(rng, 8+rng.Intn(300))
		case 1:
			c = mutate(rng, s, 0.05+0.2*rng.Float64())
		case 2:
			c = indels(rng, s)
		case 3:
			c = rearranged(rng, mutate(rng, s, 0.1))
		case 4:
			c = withBytes(rng, indels(rng, s))
		default:
			c = s[rng.Intn(len(s)/2+1):]
		}
		if rng.Intn(2) == 0 {
			s, c = c, s
		}
		queries, targets = append(queries, s), append(targets, c)
	}
	return queries, targets
}

// aminoAcids are the letters protein strands are drawn from.
const aminoAcids = "ACDEFGHIKLMNPQRSTVWY"

// edit copies s with letters substituted, deleted and inserted at rate,
// rate/4 and rate/4.
func edit(rng *rand.Rand, s, letters string, rate float64) string {
	var b []byte
	for i := 0; i < len(s); i++ {
		switch x := rng.Float64(); {
		case x < rate:
			b = append(b, letters[rng.Intn(len(letters))])
		case x < 1.25*rate:
		case x < 1.5*rate:
			b = append(b, s[i], letters[rng.Intn(len(letters))])
		default:
			b = append(b, s[i])
		}
	}
	return string(b)
}

// splitHomolog copies s with every seventh letter changed, and the
// letters either side of the 8 at each offset in keep, but those 8 kept,
// so that it shares with s the 8-mer at each kept offset and no other;
// then it inserts ins letters at cut, which sets the 8-mers either side
// of it on diagonals ins apart.
func splitHomolog(rng *rand.Rand, s, letters string, keep []int, cut, ins int) string {
	b := []byte(s)
	change := func(i int) {
		if i >= 0 && i < len(b) && b[i] == s[i] {
			b[i] = letters[(strings.IndexByte(letters, b[i])+1+rng.Intn(len(letters)-1))%len(letters)]
		}
	}
	for i := 3; i < len(b); i += 7 {
		change(i)
	}
	for _, o := range keep {
		change(o - 1)
		change(o + 8)
		copy(b[o:min(o+8, len(b))], s[o:])
	}
	return string(b[:cut]) + randomOver(rng, letters, ins) + string(b[cut:])
}

// proteinCorpus draws protein strands, short and long, with substituted,
// gapped, rearranged and indel-split copies, and a nucleotide strand in
// some pairs: a pair is over 20 letters unless both strands are over
// ACGTUN.
func proteinCorpus(rng *rand.Rand, count int) (queries, targets []string) {
	for len(queries) < count {
		n := 8 + rng.Intn(30)
		if rng.Intn(2) == 0 {
			n = 100 + rng.Intn(300)
		}
		s := randomOver(rng, aminoAcids, n)
		var c string
		switch rng.Intn(5) {
		case 0:
			c = randomDNA(rng, 8+rng.Intn(300))
		case 1:
			c = edit(rng, s, aminoAcids, 0.05+0.2*rng.Float64())
		case 2:
			c = rearranged(rng, edit(rng, s, aminoAcids, 0.1))
		case 3:
			c = splitHomolog(rng, s, aminoAcids, []int{n / 8, n / 2}, n/3, 1+rng.Intn(6))
		default:
			c = s[rng.Intn(len(s)/2+1):]
		}
		if rng.Intn(2) == 0 {
			s, c = c, s
		}
		queries, targets = append(queries, s), append(targets, c)
	}
	return queries, targets
}

// checkSeeding compares candidates with the oracle for every query
// against an index of targets, and from the other end: each pair is
// aligned from both ends alike, and aligned pairs are seeded. It returns
// how many pairs were aligned by each rule alone and seeded but dropped.
func checkSeeding(t *testing.T, queries, targets []string, k int) (twoHit, chance, dropped int) {
	t.Helper()
	index := func(seqs []string) *Index {
		ix := NewIndex(k)
		for _, s := range seqs {
			ix.Add("", s)
		}
		return ix
	}
	tix, qix := index(targets), index(queries)
	fromTargets := make([][]int32, len(targets))
	for ti, s := range targets {
		fromTargets[ti], _ = qix.candidates(strings.ToUpper(s))
	}
	for qi, s := range queries {
		q := strings.ToUpper(s)
		aligned, seeded := tix.candidates(q)
		wantSeeded := 0
		for ti, ts := range targets {
			ts = strings.ToUpper(ts)
			sd, two, ch := seedOracle(q, ts, k, minSeeds)
			al := two || ch
			if sd {
				wantSeeded++
			}
			if got := slices.Contains(aligned, int32(ti)); got != al {
				t.Fatalf("k=%d: query %q target %q aligned=%v, oracle %v", k, q, ts, got, al)
			}
			if got := slices.Contains(fromTargets[ti], int32(qi)); got != al {
				t.Fatalf("k=%d: target %q query %q aligned=%v from the target's end, oracle %v", k, ts, q, got, al)
			}
			switch {
			case sd && !al:
				dropped++
			case two && !ch:
				twoHit++
			case ch && !two:
				chance++
			}
		}
		if seeded != wantSeeded || len(aligned) > seeded {
			t.Fatalf("k=%d: query %q seeded %d (oracle %d), aligned %d", k, q, seeded, wantSeeded, len(aligned))
		}
	}
	return twoHit, chance, dropped
}

// TestSeedingMatchesOracle: on random DNA with planted copies, short and
// long, with U and N bytes, and on random protein with planted copies
// beside some DNA, the positional postings align exactly the pairs the
// brute-force oracle does, from either end, in one pass over the diagonal
// tables or in many, and each rule aligns some pair the other does not.
func TestSeedingMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var twoHit, chance, dropped int
	for _, corpus := range []func(*rand.Rand, int) ([]string, []string){seedingCorpus, proteinCorpus} {
		for _, k := range []int{4, 6, 8} {
			for round := 0; round < 3; round++ {
				queries, targets := corpus(rng, 40)
				a, b, c := checkSeeding(t, queries, targets, k)
				twoHit, chance, dropped = twoHit+a, chance+b, dropped+c
			}
		}
	}
	// One pass per record's diagonal table, as for a long query beside
	// many records.
	defer func(cells int) { diagCells = cells }(diagCells)
	diagCells = 1
	queries, targets := seedingCorpus(rng, 40)
	checkSeeding(t, queries, targets, 6)
	if twoHit == 0 || chance == 0 || dropped == 0 {
		t.Errorf("the corpus does not exercise the filter: %d pairs aligned by two hits alone, %d by beating chance alone, %d seeded and dropped",
			twoHit, chance, dropped)
	}
}

// TestSeedingKeepsIndelSplitProtein: a protein homolog whose only two
// shared 8-mers lie on diagonals an insertion apart is aligned and found,
// as by minSeeds alone: over 20 letters two shared 8-mers of strands this
// long beat chance, though over 4 they would not.
func TestSeedingKeepsIndelSplitProtein(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := randomOver(rng, aminoAcids, 300)
	h := splitHomolog(rng, q, aminoAcids, []int{40, 218}, 150, 5)
	if sd, two, _ := seedOracle(q, h, 8, 2); !sd || two {
		t.Fatalf("seeded=%v twoHit=%v: the homolog must share 8-mers on no one diagonal", sd, two)
	}
	if beatsChance(2, len(q), len(h), 8, 4) {
		t.Fatal("two shared 8-mers beat chance over 4 letters too")
	}
	ix := NewIndex(8)
	ix.Add("homolog", h)
	for i := 0; i < 20; i++ {
		ix.Add("decoy", randomOver(rng, aminoAcids, 300))
	}
	if aligned, seeded := ix.candidates(q); seeded != 1 || !slices.Equal(aligned, []int32{0}) {
		t.Fatalf("seeded %d, aligned %v; want the homolog alone", seeded, aligned)
	}
	hits := ix.Search(q, SearchOptions{MinScore: 40})
	if len(hits) != 1 || hits[0].TargetID != "homolog" {
		t.Fatalf("hits %+v; want the homolog", hits)
	}
}

// TestBeatsChanceThreshold: beatsChance is "shared >= chanceSeeds" for
// short, long and very long pairs, where e^-λ underflows.
func TestBeatsChanceThreshold(t *testing.T) {
	for _, alpha := range []int{4, 20} {
		for _, p := range [][3]int{{8, 8, 8}, {20, 30, 8}, {200, 200, 8}, {1000, 3000, 8}, {9000, 9000, 8}, {40, 60, 4}, {300, 300, 6}, {30000, 30000, 8}, {2000, 2000, 3}} {
			n, m, k := p[0], p[1], p[2]
			c := chanceSeeds(n, m, k, alpha, 1)
			if !beatsChance(c, n, m, k, alpha) || c > 1 && beatsChance(c-1, n, m, k, alpha) {
				t.Errorf("n=%d m=%d k=%d alphabet %d: beatsChance is not shared >= %d", n, m, k, alpha, c)
			}
		}
	}
}

// FuzzSeeding compares candidates with the oracle, from both ends, on one
// pair of strands among a planted copy and a decoy, nucleotide or
// protein.
func FuzzSeeding(f *testing.F) {
	f.Add("ACGTACGTACGTTTGACCA", "ACGTACGTACGTTTGACCA", uint8(4))
	f.Add("ACGTTGCAAGGCTTAACCGGTAAC", "GGCTTAACCGGTAACACGTTGCAA", uint8(6))
	f.Add("AAAAAAAAAAAAAAAAAAAA", "AAAAAAAAAA", uint8(4))
	f.Add("ACGUNNACGUACGTNNNACGT", "acgunnacguacgtnnnacgt", uint8(3))
	f.Add("MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQAPILSRVGDGTQDNLSGAEKAVQ", "MKTAYIAKQRQISFVKSHFSRQWLEERLGLIEVQAPILSRVGDGTQDNLSGAEKAVQ", uint8(6))
	f.Fuzz(func(t *testing.T, q, s string, k uint8) {
		if len(q) > 300 || len(s) > 300 {
			return
		}
		decoy := "TTGACCATGCAAGTCGATCGGATCCAAGCTTGCA"
		checkSeeding(t, []string{q, decoy}, []string{s, q, decoy}, 2+int(k%7))
	})
}
