// Package seq provides the sequence-similarity substrate for ALADIN's
// implicit link discovery (§4.4): "the values of attributes containing
// DNA, RNA, or protein sequences are compared to each other", with
// similarity computed in the style of BLAST [AMS+97] — k-mer seeding
// followed by local alignment — implemented here from scratch as
// Smith-Waterman with a k-mer prefilter.
//
// What is computed when: seeding counts the distinct k-mers each indexed
// sequence shares with a query; only candidates sharing MinSeeds are
// aligned. swScore runs the recurrence on one reusable row for the best
// score and its end cell; only a pair reaching MinScore is re-run with a
// direction matrix over the prefixes ending at that cell and traced back
// for identity and region. CrossSearch scores a pair once for both
// orientations, as seeds and score are symmetric, but traces a hit back
// in each: the traceback prefers diagonal, then up, then left, and
// transposing a pair swaps up and left, so equal-score alignments can
// differ in identity.
package seq

import (
	"slices"
	"sort"
	"strings"
	"unicode/utf8"
)

// Scoring holds alignment parameters. Gap is a linear gap penalty
// (negative).
type Scoring struct {
	Match    int
	Mismatch int
	Gap      int
}

// DefaultScoring matches BLASTN-style defaults: +2/-3 with gap -5.
func DefaultScoring() Scoring { return Scoring{Match: 2, Mismatch: -3, Gap: -5} }

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

// SmithWaterman computes the optimal local alignment of a and b under sc:
// swScore finds the score and the end cell of the first best cell in
// row-major order, then traceback re-runs the recurrence over the prefixes
// a[:endI] × b[:endJ] — whose cells depend only on those prefixes, so
// they equal the full matrix's — and walks back from that cell.
// O(len(a)*len(b)) time; the direction matrix covers only the prefixes.
// Swapping a and b keeps the score, not always the identity.
func SmithWaterman(a, b string, sc Scoring) Alignment {
	var row []int32
	score, endI, endJ := swScore(a, b, sc, &row)
	return traceback(a[:endI], b[:endJ], sc, score, &row)
}

// swScore runs the Smith-Waterman recurrence of a against b on one row of
// scores, reused from *row (grown when too short), with the diagonal and
// left neighbours in registers. It returns the best score and the end
// cell (i, j) of the first cell in row-major order attaining it — zeros
// when no cell scores above zero. It allocates nothing once *row fits b.
func swScore(a, b string, sc Scoring, row *[]int32) (score, endI, endJ int) {
	if cap(*row) < len(b) {
		*row = make([]int32, len(b))
	}
	h := (*row)[:len(b)]
	clear(h)
	match, mismatch, gap := int32(sc.Match), int32(sc.Mismatch), int32(sc.Gap)
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
			if v > best {
				best, endI, endJ = v, i+1, j+1
			}
		}
	}
	return int(best), endI, endJ
}

// traceback aligns a against b ending at their last cells, which swScore
// reported as the best cell with the given score: the recurrence again,
// recording in a direction matrix which neighbour each cell came from,
// then the walk back. Allocated per call, it is paid only for hits.
func traceback(a, b string, sc Scoring, score int, row *[]int32) Alignment {
	if score == 0 {
		return Alignment{}
	}
	n, m := len(a), len(b)
	h := (*row)[:m]
	clear(h)
	// Direction codes: 0 stop, 1 diagonal, 2 up (gap in b), 3 left (gap in
	// a); ties prefer them in that order.
	dir := make([]uint8, n*m)
	for i := 0; i < n; i++ {
		var diag, left int
		for j := 0; j < m; j++ {
			up := int(h[j])
			sub := sc.Mismatch
			if a[i] == b[j] {
				sub = sc.Match
			}
			v, d := 0, uint8(0)
			if diag+sub > v {
				v, d = diag+sub, 1
			}
			if up+sc.Gap > v {
				v, d = up+sc.Gap, 2
			}
			if left+sc.Gap > v {
				v, d = left+sc.Gap, 3
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

// ReverseComplement returns the reverse complement of a DNA sequence.
// IUPAC ambiguity codes map to their complements; non-nucleotide
// characters pass through unchanged.
func ReverseComplement(s string) string {
	b := []byte(strings.ToUpper(s))
	out := make([]byte, len(b))
	for i, c := range b {
		out[len(b)-1-i] = complementBase(c)
	}
	return string(out)
}

func complementBase(c byte) byte {
	switch c {
	case 'A':
		return 'T'
	case 'T', 'U':
		return 'A'
	case 'C':
		return 'G'
	case 'G':
		return 'C'
	case 'R':
		return 'Y'
	case 'Y':
		return 'R'
	case 'K':
		return 'M'
	case 'M':
		return 'K'
	}
	return c
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
	// kmers numbers the distinct k-mers. Their posting lists are chained
	// through flat arrays, newest first: last[k] is k-mer k's newest
	// posting, rec[p] the record of posting p and prev[p] the k-mer's
	// next older posting (-1 ends the list).
	kmers           map[string]int32
	last, rec, prev []int32
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
	for i := 0; i+ix.K <= len(sequence); i++ {
		k, ok := ix.kmers[sequence[i:i+ix.K]]
		if !ok {
			k = int32(len(ix.last))
			ix.kmers[sequence[i:i+ix.K]] = k
			ix.last = append(ix.last, -1)
		} else if ix.rec[ix.last[k]] == r {
			continue // posted already for this record
		}
		ix.rec = append(ix.rec, r)
		ix.prev = append(ix.prev, ix.last[k])
		ix.last[k] = int32(len(ix.rec) - 1)
	}
}

// Len returns the number of indexed sequences.
func (ix *Index) Len() int { return len(ix.records) }

// SearchOptions tunes Search.
type SearchOptions struct {
	// MinSeeds is the number of distinct shared k-mers required before a
	// candidate pair is aligned (default 2).
	MinSeeds int
	// MinScore drops alignments below this score (default 20).
	MinScore int
	// MinIdentity drops alignments below this identity (default 0).
	MinIdentity float64
	// MaxHits caps returned hits (0 = unlimited).
	MaxHits int
	// Scoring is the alignment scoring (zero value = DefaultScoring).
	Scoring Scoring
	// BothStrands additionally searches the query's reverse complement
	// (DNA only); hits found on the minus strand are marked.
	BothStrands bool
}

func (o *SearchOptions) fill() {
	if o.MinSeeds <= 0 {
		o.MinSeeds = 2
	}
	if o.MinScore <= 0 {
		o.MinScore = 20
	}
	if o.Scoring == (Scoring{}) {
		o.Scoring = DefaultScoring()
	}
}

// Hit is one query-target match.
type Hit struct {
	TargetID  string
	Alignment Alignment
	// MinusStrand marks hits found against the query's reverse
	// complement.
	MinusStrand bool
}

// Search finds targets sharing at least MinSeeds k-mers with the query,
// aligns each candidate with Smith-Waterman, and returns hits ranked by
// Rank. With BothStrands set, the reverse complement is also searched
// and the best strand per target kept.
func (ix *Index) Search(query string, opts SearchOptions) []Hit {
	opts.fill()
	var hits []Hit
	for _, p := range ix.CrossSearch(query, opts) {
		if p.Fwd.Identity >= opts.MinIdentity {
			hits = append(hits, Hit{TargetID: ix.records[p.Target].ID, Alignment: p.Fwd, MinusStrand: p.MinusStrand})
		}
	}
	hits = Rank(hits, opts.BothStrands)
	if opts.MaxHits > 0 && len(hits) > opts.MaxHits {
		hits = hits[:opts.MaxHits]
	}
	return hits
}

// Pair is one seeded (query, target) pair of CrossSearch that reached
// MinScore, aligned in both orientations.
type Pair struct {
	// Target is the target's position in the index, in Add order.
	Target int
	// Fwd aligns the query against the target, Rev the target against the
	// query; on the minus strand each aligns the reverse complement of its
	// first sequence, as Search of that sequence would.
	Fwd, Rev    Alignment
	MinusStrand bool
}

// CrossSearch is Search from both ends at once: its pairs are those
// Search of the query reaches (Fwd) and those Search of each target over
// an index of the queries would reach (Rev). Seeds and score do not
// depend on the orientation, so swScore scores each candidate once; a
// pair reaching MinScore is traced back once per orientation. MinIdentity
// and MaxHits are left to the caller. Rev is exact on the minus strand
// only when every query and target is MinusSymmetric. Pairs come plus
// strand first, each strand in index order.
func (ix *Index) CrossSearch(query string, opts SearchOptions) []Pair {
	opts.fill()
	var row []int32
	var pairs []Pair
	query = strings.ToUpper(query)
	strand := func(q string, minus bool) {
		for _, rid := range ix.candidates(q, opts.MinSeeds) {
			t := ix.records[rid].Seq
			score, endI, endJ := swScore(q, t, opts.Scoring, &row)
			if score < opts.MinScore {
				continue
			}
			p := Pair{Target: int(rid), MinusStrand: minus, Fwd: traceback(q[:endI], t[:endJ], opts.Scoring, score, &row)}
			if minus {
				t = strings.ToUpper(ReverseComplement(t))
			}
			p.Rev = SmithWaterman(t, query, opts.Scoring)
			pairs = append(pairs, p)
		}
	}
	strand(query, false)
	if opts.BothStrands {
		strand(strings.ToUpper(ReverseComplement(query)), true)
	}
	return pairs
}

// MinusSymmetric reports whether reverse complementing is an involution
// on s — it is not for U (complemented to A, whose complement is T) or
// non-ASCII bytes — which is what makes a pair's minus-strand seeds and
// score equal from either end.
func MinusSymmetric(s string) bool {
	return !strings.ContainsFunc(s, func(r rune) bool { return r == 'U' || r == 'u' || r >= utf8.RuneSelf })
}

// Rank orders one query's hits as Search returns them: with bothStrands
// only the best hit per target ID is kept (the higher score, the plus
// strand on a tie, else the first), then hits sort by score descending
// and target ID.
func Rank(hits []Hit, bothStrands bool) []Hit {
	if bothStrands {
		best := make(map[string]int, len(hits))
		kept := hits[:0]
		for _, h := range hits {
			if k, ok := best[h.TargetID]; !ok {
				best[h.TargetID] = len(kept)
				kept = append(kept, h)
			} else if c := kept[k].Alignment.Score; h.Alignment.Score > c || h.Alignment.Score == c && kept[k].MinusStrand && !h.MinusStrand {
				kept[k] = h
			}
		}
		hits = kept
	}
	sort.SliceStable(hits, func(i, j int) bool {
		if hits[i].Alignment.Score != hits[j].Alignment.Score {
			return hits[i].Alignment.Score > hits[j].Alignment.Score
		}
		return hits[i].TargetID < hits[j].TargetID
	})
	return hits
}

// candidates is the seeding every search shares: the records sharing at
// least minSeeds distinct k-mers with the upper-cased query, in index
// order.
func (ix *Index) candidates(query string, minSeeds int) []int32 {
	kmers := make([]int32, 0, len(query))
	for i := 0; i+ix.K <= len(query); i++ {
		if k, ok := ix.kmers[query[i:i+ix.K]]; ok {
			kmers = append(kmers, k)
		}
	}
	slices.Sort(kmers)
	counts := make([]int32, len(ix.records))
	for _, k := range slices.Compact(kmers) {
		for p := ix.last[k]; p >= 0; p = ix.prev[p] {
			counts[ix.rec[p]]++
		}
	}
	var out []int32
	for rid, n := range counts {
		if int(n) >= minSeeds {
			out = append(out, int32(rid))
		}
	}
	return out
}

// CandidateCount returns how many targets share >= minSeeds k-mers with
// the query — the seeding selectivity, measured by the pruning
// experiments without paying for alignment.
func (ix *Index) CandidateCount(query string, minSeeds int) int {
	return len(ix.candidates(strings.ToUpper(query), max(minSeeds, 1)))
}

// AllPairs aligns every query against every target with no seeding — the
// quadratic baseline for the E7 pruning comparison.
func AllPairs(queries, targets []Record, opts SearchOptions) map[string][]Hit {
	opts.fill()
	var row []int32
	out := make(map[string][]Hit, len(queries))
	for _, q := range queries {
		qs := strings.ToUpper(q.Seq)
		var hits []Hit
		for _, t := range targets {
			ts := strings.ToUpper(t.Seq)
			score, endI, endJ := swScore(qs, ts, opts.Scoring, &row)
			if score < opts.MinScore {
				continue
			}
			if al := traceback(qs[:endI], ts[:endJ], opts.Scoring, score, &row); al.Identity >= opts.MinIdentity {
				hits = append(hits, Hit{TargetID: t.ID, Alignment: al})
			}
		}
		out[q.ID] = Rank(hits, false)
	}
	return out
}
