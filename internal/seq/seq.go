// Package seq provides the sequence-similarity substrate for ALADIN's
// implicit link discovery (§4.4): "the values of attributes containing
// DNA, RNA, or protein sequences are compared to each other", with
// similarity computed in the style of BLAST [AMS+97] — k-mer seeding
// followed by local alignment — implemented here from scratch as
// Smith-Waterman with a k-mer prefilter. Sequences are compared as
// stored, on the plus strand.
//
// What is computed when: the index posts every k-mer occurrence with its
// offset. Seeding counts the distinct k-mers each indexed sequence shares
// with a query; a candidate sharing minSeeds is seeded, and aligned only
// if two of its k-mer hits lie on one diagonal without overlapping (the
// two-hit rule of Gapped BLAST [AMS+97]) or its shared k-mers are more
// than random strands of those lengths and alphabet (4 nucleotides or 20
// amino acids) share but with probability 1e-4.
// swScore runs the recurrence on one reusable row for the best score and
// its end cell in each orientation; only a pair reaching MinScore is
// re-run with a direction matrix over the prefixes ending at that cell
// and traced back for identity and region. CrossSearch scores a pair in
// one pass for both orientations, as seeding, under both rules, and
// score are symmetric, but traces a hit back in each: the traceback
// prefers diagonal, then up, then left, and transposing a pair swaps up
// and left, so equal-score alignments can differ in identity.
package seq

import (
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
)

// The alignment scoring, BLASTN-style: +2 per match, -3 per mismatch and
// a linear -5 per gap column.
const (
	match    = 2
	mismatch = -3
	gap      = -5
)

// Alignment is the result of a local alignment.
type Alignment struct {
	Score int
	// Identity is matches / alignment columns in the locally aligned
	// region (0 when no positive-scoring alignment exists).
	Identity float64
	// AStart/AEnd and BStart/BEnd delimit the aligned region (half-open)
	// in the two inputs.
	AStart, AEnd int
	BStart, BEnd int
	// Matches and Columns give the raw identity counts.
	Matches, Columns int
}

// swScore runs the Smith-Waterman recurrence of a against b on one row of
// scores, reused from *row (grown when too short), with the diagonal and
// left neighbours in registers. It returns the best score and two cells
// attaining it: (endI, endJ), the first in row-major order, where the
// alignment of a against b ends, and (revI, revJ), the first in
// column-major order, where that of b against a ends — the matrix of b
// against a is this one transposed. All are zero when no cell scores
// above zero. It allocates nothing once *row fits b.
func swScore(a, b string, row *[]int32) (score, endI, endJ, revI, revJ int) {
	if cap(*row) < len(b) {
		*row = make([]int32, len(b))
	}
	h := (*row)[:len(b)]
	clear(h)
	var best int32
	for i := 0; i < len(a); i++ {
		ai := a[i]
		var diag, left int32 // column 0 is all zeros
		for j, up := range h {
			v := diag + mismatch
			if ai == b[j] {
				v = diag + match
			}
			v = max(v, up+gap, left+gap, 0)
			h[j], diag, left = v, up, v
			if v >= best {
				if v > best {
					best, endI, endJ, revI, revJ = v, i+1, j+1, i+1, j+1
				} else if j+1 < revJ {
					revI, revJ = i+1, j+1
				}
			}
		}
	}
	return int(best), endI, endJ, revI, revJ
}

// traceback aligns a against b ending at their last cells, which swScore
// reported as the best cell with the given score: the recurrence again,
// recording in a direction matrix which neighbour each cell came from,
// then the walk back. Its cells depend only on the prefixes, so they equal
// the full matrix's. Allocated per call, it is paid only for hits.
func traceback(a, b string, score int, row *[]int32) Alignment {
	if score == 0 {
		return Alignment{}
	}
	n, m := len(a), len(b)
	if cap(*row) < m {
		*row = make([]int32, m)
	}
	h := (*row)[:m]
	clear(h)
	// Direction codes: 0 stop, 1 diagonal, 2 up (gap in b), 3 left (gap in
	// a); ties prefer them in that order.
	dir := make([]uint8, n*m)
	for i := 0; i < n; i++ {
		var diag, left int
		for j := 0; j < m; j++ {
			up := int(h[j])
			sub := mismatch
			if a[i] == b[j] {
				sub = match
			}
			v, d := 0, uint8(0)
			if diag+sub > v {
				v, d = diag+sub, 1
			}
			if up+gap > v {
				v, d = up+gap, 2
			}
			if left+gap > v {
				v, d = left+gap, 3
			}
			h[j], diag, left = int32(v), up, v
			dir[i*m+j] = d
		}
	}
	matches, cols := 0, 0
	i, j := n, m
	for i > 0 && j > 0 {
		d := dir[(i-1)*m+j-1]
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
	al := Alignment{Score: score, AStart: i, AEnd: n, BStart: j, BEnd: m, Matches: matches, Columns: cols}
	if cols > 0 {
		al.Identity = float64(matches) / float64(cols)
	}
	return al
}

// Record is one named sequence.
type Record struct {
	ID  string
	Seq string
}

// Index is a k-mer inverted index over target sequences, the seeding
// stage of the BLAST-shaped search.
type Index struct {
	K       int
	records []Record
	// kmers numbers the distinct k-mers. Their posting lists, one posting
	// per occurrence, are chained through flat arrays, newest first:
	// last[k] is k-mer k's newest posting, rec[p] and pos[p] the record
	// and offset of posting p, and prev[p] the k-mer's next older posting
	// (-1 ends the list). A record's postings of one k-mer are adjacent.
	kmers                map[string]int32
	last, rec, pos, prev []int32
	// alpha[r] is the size of record r's alphabet (see alphabet).
	alpha []uint8
}

// NewIndex builds an index with k-mer length k (k >= 4 recommended for
// DNA, 3 for protein).
func NewIndex(k int) *Index {
	if k < 2 {
		k = 2
	}
	return &Index{K: k, kmers: make(map[string]int32)}
}

// Add inserts a target sequence.
func (ix *Index) Add(id, sequence string) {
	sequence = strings.ToUpper(sequence)
	r := int32(len(ix.records))
	ix.records = append(ix.records, Record{ID: id, Seq: sequence})
	ix.alpha = append(ix.alpha, uint8(alphabet(sequence)))
	for i := 0; i+ix.K <= len(sequence); i++ {
		k, ok := ix.kmers[sequence[i:i+ix.K]]
		if !ok {
			k = int32(len(ix.last))
			ix.kmers[sequence[i:i+ix.K]] = k
			ix.last = append(ix.last, -1)
		}
		ix.rec = append(ix.rec, r)
		ix.pos = append(ix.pos, int32(i))
		ix.prev = append(ix.prev, ix.last[k])
		ix.last[k] = int32(len(ix.rec) - 1)
	}
}

// Len returns the number of indexed sequences.
func (ix *Index) Len() int { return len(ix.records) }

// SearchOptions tunes CrossSearch.
type SearchOptions struct {
	// MinScore drops alignments below this score: the caller's policy,
	// which link discovery sets to 40.
	MinScore int
}

// Hit is one query-target match.
type Hit struct {
	TargetID  string
	Alignment Alignment
}

// Pair is one seeded (query, target) pair of CrossSearch that reached
// MinScore, aligned in both orientations.
type Pair struct {
	// Target is the target's position in the index, in Add order.
	Target int
	// Fwd aligns the query against the target, Rev the target against the
	// query.
	Fwd, Rev Alignment
}

// Work counts what a search did: Seeded targets shared minSeeds distinct
// k-mers with the query, Aligned of them were scored by swScore, and
// Cells counts the dynamic-programming cells that scoring filled.
type Work struct {
	Seeded, Aligned int
	Cells           int64
}

// Add adds o's counts to w's.
func (w *Work) Add(o Work) {
	w.Seeded, w.Aligned, w.Cells = w.Seeded+o.Seeded, w.Aligned+o.Aligned, w.Cells+o.Cells
}

// CrossSearch finds targets sharing at least minSeeds k-mers with the
// query, aligns each candidate that passes the two-hit or chance rule
// (see candidates) with Smith-Waterman, and returns the pairs reaching
// MinScore from both ends at once: the query against the target (Fwd)
// and the target against the query (Rev), as a search of each target
// over an index of the queries would find it. Seeding and score do not
// depend on the orientation, so one swScore pass scores each candidate
// and finds where its alignment ends in either orientation; a pair
// reaching MinScore is traced back once per orientation. Pairs come in
// index order. What the search did is added to *w.
func (ix *Index) CrossSearch(query string, opts SearchOptions, w *Work) []Pair {
	var row []int32
	var pairs []Pair
	query = strings.ToUpper(query)
	aligned, seeded := ix.candidates(query)
	w.Seeded += seeded
	w.Aligned += len(aligned)
	for _, rid := range aligned {
		t := ix.records[rid].Seq
		w.Cells += int64(len(query)) * int64(len(t))
		score, endI, endJ, revI, revJ := swScore(query, t, &row)
		if score < opts.MinScore {
			continue
		}
		pairs = append(pairs, Pair{
			Target: int(rid),
			Fwd:    traceback(query[:endI], t[:endJ], score, &row),
			Rev:    traceback(t[:revJ], query[:revI], score, &row),
		})
	}
	return pairs
}

// Rank orders one query's hits: by score descending, then target ID.
func Rank(hits []Hit) []Hit {
	sort.SliceStable(hits, func(i, j int) bool {
		if hits[i].Alignment.Score != hits[j].Alignment.Score {
			return hits[i].Alignment.Score > hits[j].Alignment.Score
		}
		return hits[i].TargetID < hits[j].TargetID
	})
	return hits
}

// minSeeds is the number of distinct shared k-mers that seeds a candidate
// pair. Two random 200-base DNA strands share two 8-mers about one time in
// eight, so seeding alone filters little: a seeded pair is aligned only
// under the two-hit or chance rule (candidates).
const minSeeds = 2

// seedChance is the chance at or below which a count of shared k-mers
// beats chance: random strands share that many with at most this
// probability.
const seedChance = 1e-4

// diagCells bounds the diagonal tables one pass of candidates fills (a
// variable so that tests can force one pass per record).
var diagCells = 1 << 20

// seedScratch is the working memory of candidates, reused across calls:
// the query's k-mer occurrences, a state per record, the records that
// must show two hits and their diagonal tables.
type seedScratch struct {
	occ           []uint64
	state, twoHit []int32
	diag          []int32
}

var seedScratchPool = sync.Pool{New: func() any { return new(seedScratch) }}

// candidates is the seeding every search shares. A record is seeded if it
// shares at least minSeeds distinct k-mers with the upper-cased query,
// and aligned only if, besides, one of two rules holds — both symmetric
// in query and record:
//   - two hits: two non-overlapping k-mer hits lie on one diagonal, query
//     offsets i1 + k <= i2 and record offsets j1 - i1 = j2 - i2 (the
//     two-hit rule of Gapped BLAST);
//   - beats chance: the shared k-mers are more than random strands of
//     those lengths and alphabet share but with probability seedChance
//     (beatsChance).
//
// It returns the aligned records in index order and the seeded count.
// The postings are walked once to count each record's shared k-mers, then
// again to find two hits for the seeded records that do not beat chance,
// on one diagonal table per such record — in more than one pass if their
// tables outgrow diagCells.
func (ix *Index) candidates(query string) (aligned []int32, seeded int) {
	sc := seedScratchPool.Get().(*seedScratch)
	n, qAlpha := len(query), alphabet(query)
	// occ holds the query's indexed k-mers as id<<32 | offset, so sorting
	// groups each k-mer's occurrences.
	occ := sc.occ[:0]
	for i := 0; i+ix.K <= n; i++ {
		if k, ok := ix.kmers[query[i:i+ix.K]]; ok {
			occ = append(occ, uint64(k)<<32|uint64(i))
		}
	}
	sc.occ = occ
	slices.Sort(occ)
	// groups calls visit with each distinct k-mer and its query offsets.
	groups := func(visit func(k int32, occ []uint64)) {
		for g := 0; g < len(occ); {
			e := g + 1
			for e < len(occ) && occ[e]>>32 == occ[g]>>32 {
				e++
			}
			visit(int32(occ[g]>>32), occ[g:e])
			g = e
		}
	}
	counts := slices.Grow(sc.state[:0], len(ix.records))[:len(ix.records)]
	sc.state = counts
	clear(counts)
	groups(func(k int32, _ []uint64) {
		prev := int32(-1)
		for p := ix.last[k]; p >= 0; p = ix.prev[p] {
			if r := ix.rec[p]; r != prev {
				counts[r]++
				prev = r
			}
		}
	})
	// state[r] is -1 for a record aligned, 0 for one left out or waiting
	// for its pass, and for one whose two hits a pass looks for 1 + the
	// offset of its diagonal table in diag: the least and the greatest
	// query offset of a hit on each of its n + m - 1 diagonals.
	state, twoHit := counts, sc.twoHit[:0]
	for r, c := range counts {
		state[r] = 0
		if int(c) < minSeeds {
			continue
		}
		seeded++
		if beatsChance(int(c), n, len(ix.records[r].Seq), ix.K, max(qAlpha, int(ix.alpha[r]))) {
			state[r] = -1
		} else {
			twoHit = append(twoHit, int32(r))
		}
	}
	sc.twoHit = twoHit
	// Each pass walks the postings once for as many tables as fit in
	// diagCells, so a long query against many records stays bounded.
	for len(twoHit) > 0 {
		size, next := 0, 0
		for ; next < len(twoHit); next++ {
			need := 2 * (n + len(ix.records[twoHit[next]].Seq) - 1)
			if next > 0 && size+need > diagCells {
				break
			}
			state[twoHit[next]] = int32(size + 1)
			size += need
		}
		diag := slices.Grow(sc.diag[:0], size)[:size]
		sc.diag = diag
		for i := 0; i < size; i += 2 {
			diag[i], diag[i+1] = math.MaxInt32, -1
		}
		groups(func(k int32, occ []uint64) {
		postings:
			for p := ix.last[k]; p >= 0; p = ix.prev[p] {
				r := ix.rec[p]
				if state[r] <= 0 {
					continue
				}
				// Hit (i, j) lies on diagonal j - i + n - 1 of r's table.
				base := int(state[r]-1) + 2*(int(ix.pos[p])+n-1)
				for _, o := range occ {
					i := int32(uint32(o))
					d := diag[base-2*int(i):]
					d[0], d[1] = min(d[0], i), max(d[1], i)
					if int(d[1]-d[0]) >= ix.K {
						state[r] = -1
						continue postings
					}
				}
			}
		})
		for _, r := range twoHit[:next] {
			state[r] = min(state[r], 0)
		}
		twoHit = twoHit[next:]
	}
	for r, st := range state {
		if st < 0 {
			aligned = append(aligned, int32(r))
		}
	}
	seedScratchPool.Put(sc)
	return aligned, seeded
}

// alphabet is the size of the alphabet an upper-cased strand is taken to
// be drawn from: 4 for a nucleotide strand, over A, C, G, T, U and N (the
// letters profile counts as DNA), and 20 for any other, a protein.
func alphabet(s string) int {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case 'A', 'C', 'G', 'T', 'U', 'N':
		default:
			return 20
		}
	}
	return 4
}

// beatsChance reports whether two strands of lengths n and m over an
// alphabet of size alpha sharing shared distinct k-mers beat chance:
// P[Poisson(λ) >= shared] <= seedChance, where λ =
// (n-k+1)(m-k+1)/alpha^k is the number of k-mer matches two random
// strands of those lengths have by chance. A pair is over the larger of
// its strands' alphabets, so a protein pair's λ is (20/4)^k times a
// nucleotide pair's. The terms are summed in logs, so a long pair's e^-λ
// does not underflow.
func beatsChance(shared, n, m, k, alpha int) bool {
	lambda := float64(n-k+1) * float64(m-k+1) / math.Pow(float64(alpha), float64(k))
	if lambda <= 0 {
		return true
	}
	lp, below := -lambda, 0.0 // log P[X = x], P[X < x]
	for x := 0; x < shared; x++ {
		below += math.Exp(lp)
		lp += math.Log(lambda / float64(x+1))
	}
	return 1-below <= seedChance
}

// CandidateCount returns how many targets share >= minSeeds k-mers with
// the query (seeded) and how many of those a search aligns — the seeding
// selectivity, measured by the pruning experiments without paying for
// alignment.
func (ix *Index) CandidateCount(query string) (seeded, aligned int) {
	al, seeded := ix.candidates(strings.ToUpper(query))
	return seeded, len(al)
}

// AllPairs aligns every query against every target with no seeding — the
// quadratic baseline for the E7 pruning comparison.
func AllPairs(queries, targets []Record, opts SearchOptions) map[string][]Hit {
	var row []int32
	out := make(map[string][]Hit, len(queries))
	for _, q := range queries {
		qs := strings.ToUpper(q.Seq)
		var hits []Hit
		for _, t := range targets {
			ts := strings.ToUpper(t.Seq)
			score, endI, endJ, _, _ := swScore(qs, ts, &row)
			if score < opts.MinScore {
				continue
			}
			hits = append(hits, Hit{TargetID: t.ID, Alignment: traceback(qs[:endI], ts[:endJ], score, &row)})
		}
		out[q.ID] = Rank(hits)
	}
	return out
}
