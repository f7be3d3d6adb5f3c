package dup

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// oracleCandidates is the admission loop candidates replaced: every
// window pair of every pass, filtered through a set of the pairs already
// admitted, so a pair both passes produce is kept in pass 0's orientation.
// n is the number of records indexed before the batch.
func oracleCandidates(ix *Index, n int, blocking BlockingMode) [][2]*prepared {
	existing, fresh := ix.all[:n], ix.all[n:]
	firstNew := ix.lastID + 1 - uint32(len(fresh))
	seen := make(map[uint64]bool)
	var pairs [][2]*prepared
	add := func(a, b *prepared) {
		if a.rec.Source == b.rec.Source && a.rec.Accession == b.rec.Accession {
			return
		}
		k := uint64(min(a.id, b.id))<<32 | uint64(max(a.id, b.id))
		if seen[k] {
			return
		}
		seen[k] = true
		pairs = append(pairs, [2]*prepared{a, b})
	}
	switch blocking {
	case FullPairwise:
		for ai, a := range fresh {
			for _, b := range existing {
				add(a, b)
			}
			for _, b := range fresh[ai+1:] {
				add(a, b)
			}
		}
	case SortedNeighborhood:
		for _, ks := range ix.passes {
			for i := range ks {
				if ks[i].id < firstNew {
					continue
				}
				for j := max(i-window, 0); j <= min(i+window, len(ks)-1); j++ {
					if j == i || (j < i && ks[j].id >= firstNew) {
						continue
					}
					add(ks[i], ks[j])
				}
			}
		}
	}
	return pairs
}

// admitBatch inserts a batch and checks that candidates returns the
// oracle's pairs, in its order and orientation. It returns the number of
// pairs.
func admitBatch(t *testing.T, ix *Index, batch []Record, blocking BlockingMode) int {
	t.Helper()
	n := len(ix.all)
	ix.insert(batch)
	got, want := ix.candidates(n, blocking), oracleCandidates(ix, n, blocking)
	for k := range min(len(got), len(want)) {
		a, b := ix.passes[0][got[k][0]], ix.passes[0][got[k][1]]
		if a != want[k][0] || b != want[k][1] {
			t.Fatalf("pair %d of %d: %s~%s, the oracle has %s~%s", k, len(want),
				a.rec.Accession, b.rec.Accession, want[k][0].rec.Accession, want[k][1].rec.Accession)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d pairs, the oracle has %d", len(got), len(want))
	}
	return len(got)
}

// longestKeyRun is the longest run of equal pass-0 blocking keys.
func longestKeyRun(ix *Index) int {
	longest, run := 0, 0
	for i, p := range ix.passes[0] {
		if i > 0 && p.keys[0] == ix.passes[0][i-1].keys[0] {
			run++
		} else {
			run = 1
		}
		longest = max(longest, run)
	}
	return longest
}

// Candidate admission by pass-0 position gives the pairs, order and
// orientation of the map-based loop it replaced, over random batch
// splits (batches both shorter and longer than 2·window), blocking-key
// runs longer than the window, re-added copies of indexed records, and
// batches removed and added again, under both blocking modes.
func TestDupAdmissionMatchesOracle(t *testing.T) {
	for _, blocking := range []BlockingMode{SortedNeighborhood, FullPairwise} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			records := make([]Record, 700)
			for i := range records {
				records[i] = randomRecord(rng, fmt.Sprintf("s%d", i%3), i)
			}
			ix := NewIndex()
			var batches [][]Record
			pairs := 0
			for lo := 0; lo < len(records); {
				hi := min(lo+1+rng.Intn(120), len(records))
				batch := records[lo:hi]
				if rng.Intn(5) == 0 && lo > 0 {
					// Copies of already indexed records: never paired with
					// their originals.
					batch = append(batch[:len(batch):len(batch)], records[rng.Intn(lo)])
				}
				pairs += admitBatch(t, ix, batch, blocking)
				batches = append(batches, batch)
				lo = hi
			}
			// Unwind the tail batch and an earlier one, then add them again.
			for _, k := range []int{len(batches) - 1, rng.Intn(len(batches) - 1)} {
				ix.Remove(batches[k])
				pairs += admitBatch(t, ix, batches[k], blocking)
			}
			if run := longestKeyRun(ix); run <= 2*window {
				t.Fatalf("seed %d: longest blocking-key run %d, want one past 2·window", seed, run)
			}
			if pairs == 0 {
				t.Fatalf("seed %d: no pairs admitted", seed)
			}
		}
	}
}

// orderTokens draws tokens around shared 8-byte prefixes, of lengths 7, 8
// and 9 among others, with multi-byte UTF-8 letters.
func orderTokens(rng *rand.Rand, n int) []string {
	prefixes := []string{"", "abcdefg", "abcdefgh", "abcdefghi", "kinases", "中文字", "aé", "zü"}
	letters := []string{"a", "b", "h", "i", "z", "0", "9", "é", "ü", "中", "文"}
	out := make([]string, n)
	for i := range out {
		s := prefixes[rng.Intn(len(prefixes))]
		for k := rng.Intn(4); k > 0 || len(s) < 2; k-- {
			s += letters[rng.Intn(len(letters))]
		}
		out[i] = s
	}
	return out
}

// Comparing order keys, and the strings only when the keys tie, gives the
// sign of strings.Compare.
func TestDupOrderKeySign(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	toks := orderTokens(rng, 4000)
	toks = append(toks, "abcdefg", "abcdefgh", "abcdefghi", "abcdefgi", "中文字", "中文字a")
	for k := 0; k < 40000; k++ {
		a, b := toks[rng.Intn(len(toks))], toks[rng.Intn(len(toks))]
		if k < 36 { // every pair of the fixed tokens
			a, b = toks[len(toks)-6+k/6], toks[len(toks)-6+k%6]
		}
		c := cmp.Compare(orderKey(a), orderKey(b))
		if c == 0 {
			c = strings.Compare(a, b)
		}
		if want := strings.Compare(a, b); c != want {
			t.Fatalf("%q vs %q: keys %016x, %016x give %d, strings.Compare %d", a, b, orderKey(a), orderKey(b), c, want)
		}
	}
}

// referenceJaccard is weightedJaccard merging on the strings alone.
func referenceJaccard(a, b *field) float64 {
	var inter, union float64
	i, j := 0, 0
	for i < len(a.toks) && j < len(b.toks) {
		switch c := strings.Compare(a.toks[i], b.toks[j]); {
		case c < 0:
			union += a.tw[i].idf
			i++
		case c > 0:
			union += b.tw[j].idf
			j++
		default:
			union += a.tw[i].idf
			inter += a.tw[i].idf
			i++
			j++
		}
	}
	for ; i < len(a.toks); i++ {
		union += a.tw[i].idf
	}
	for ; j < len(b.toks); j++ {
		union += b.tw[j].idf
	}
	if union == 0 {
		return 0
	}
	return inter / union
}

// weightedJaccard merging on order keys equals the string merge to the
// bit, on prepared prose values under the IDF weights of their corpus.
func TestDupOrderKeyJaccard(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	vocab := orderTokens(rng, 60)
	records := make([]Record, 300)
	for i := range records {
		words := make([]string, 3+rng.Intn(12))
		for k := range words {
			words[k] = vocab[rng.Intn(len(vocab))]
		}
		records[i] = rec("s", fmt.Sprint(i), map[string]string{"text": strings.Join(words, " ")})
	}
	m := NewMatcher(records)
	fields := make([]*field, len(records))
	for i, r := range records {
		p := prepare(r, uint32(i+1))
		p.resolve(m)
		fields[i] = &p.fields[0]
		for k, tok := range fields[i].toks {
			if fields[i].tw[k].ord != orderKey(tok) {
				t.Fatalf("%q: resolved order key %016x, want %016x", tok, fields[i].tw[k].ord, orderKey(tok))
			}
		}
	}
	shared := 0
	for i, a := range fields {
		for _, b := range fields[i:] {
			got, want := weightedJaccard(a, b), referenceJaccard(a, b)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v vs %v: %v, the string merge gives %v", a.toks, b.toks, got, want)
			}
			if got > 0 && got < 1 {
				shared++
			}
		}
	}
	if shared == 0 {
		t.Fatal("no pair of values shares only some tokens")
	}
}
