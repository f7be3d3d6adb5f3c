// Package dup implements ALADIN's duplicate detection step (§4.5):
// finding objects in different data sources that represent the same
// real-world object. Following the paper, duplicates are *flagged, never
// merged* — a duplicate is just one more type of link — and conflicts
// between flagged duplicates are surfaced for the browsing interface
// ("Conflicts are highlighted, and data lineage is shown", §4.6).
//
// Because the sources have heterogeneous, only partly overlapping models
// (§4.5), record similarity is computed without assuming aligned
// attributes: every field of one record is compared against every field
// of the other and the best pairing per field is aggregated, in the
// spirit of [WN04]/[BN05]. Blocking uses the sorted-neighbourhood method,
// with full pairwise comparison available for the ablation experiments.
//
// Everything scores prepared records (prepared, below), through one
// scorer: an Index prepares each record once when it enters — fields in
// name order, one lower-cased copy and one tokenisation per value — and
// every entry point (FindDuplicates, Index.FindNewContext, Conflicts)
// reaches score and fieldSim over that form.
// Candidate generation and the resolution of frequency weights are
// serial; only the scoring of resolved, read-only records fans out over
// workers. Per candidate pair each field-by-field similarity is computed
// at most once and read by both directions of the aggregate; field order,
// not map order, fixes every sum and tie-break, so a pair's similarity and
// evidence are the same on every run. incremental.go says what is built
// at insert, at the first comparison and per pass.
//
// The gate, above a threshold of 0.5: score fills the cheap cells first
// (equal values, accession against accession, cross-shape zeros,
// Jaccard) and takes every q-gram Dice and Jaro-Winkler cell as 1. Each
// input of directed's corroboration rule (row best, the 0.2 cut, the
// accession doubling, anchor, support) only grows with the cells, and an
// uncorroborated direction scores at most 0.5: if neither is then
// corroborated, the pair cannot be flagged and those cells are never
// computed. Otherwise they are filled into the same matrix.
package dup

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/discovery"
	"repro/internal/metadata"
	"repro/internal/parallel"
	"repro/internal/rel"
	"repro/internal/textmine"
)

// Record is one primary object prepared for duplicate detection.
type Record struct {
	Source    string
	Relation  string
	Accession string
	// Fields maps column name -> rendered value (non-null, non-key
	// columns of the primary relation).
	Fields map[string]string
}

// Ref returns the record's object reference.
func (r Record) Ref() metadata.ObjectRef {
	return metadata.ObjectRef{Source: r.Source, Relation: r.Relation, Accession: r.Accession}
}

// RecordsFromSource extracts duplicate-detection records from a source's
// primary relation.
func RecordsFromSource(db *rel.Database, s *discovery.Structure) []Record {
	if s == nil || s.Primary == "" {
		return nil
	}
	pr := db.Relation(s.Primary)
	if pr == nil {
		return nil
	}
	accIdx := pr.Schema.Index(s.PrimaryAccession)
	if accIdx < 0 {
		return nil
	}
	var out []Record
	for _, t := range pr.Tuples {
		acc := t[accIdx]
		if acc.IsNull() {
			continue
		}
		rec := Record{
			Source:    db.Name,
			Relation:  pr.Name,
			Accession: acc.AsString(),
			Fields:    make(map[string]string),
		}
		for i, c := range pr.Schema.Columns {
			if i == accIdx || t[i].IsNull() {
				continue
			}
			v := t[i].AsString()
			// Surrogate integer keys carry no identity signal.
			if isDigitsOnly(v) {
				continue
			}
			rec.Fields[strings.ToLower(c.Name)] = v
		}
		out = append(out, rec)
	}
	return out
}

func isDigitsOnly(s string) bool {
	if s == "" {
		return true
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// longValueLen is the length above which a single-token value is scored
// by q-gram overlap instead of Jaro-Winkler. Accession-shaped and name-
// shaped values stay far below it; sequence residues sit far above.
const longValueLen = 48

// field is one field of a prepared record.
type field struct {
	name string
	// lower is the one lower-cased copy of the value: the matcher's
	// valueCount key, the backing of the tokens, and what the scorer reads.
	lower string
	// toks is the token SET of the value in sorted order (substrings of
	// lower): it feeds the matcher's counts and both blocking keys at
	// insert and is merged, not hashed, when two values are compared.
	toks      []string
	accession bool // textmine.LooksLikeAccession(value)
	prose     bool // three or more words: compared by weighted token overlap

	// The trigram profile of a value that is not prose, built at the
	// record's first q-gram Dice cell (prepared.grams).
	grams []textmine.GramRun
	// Resolved against the frozen matcher once per pass (resolve): the
	// order key and IDF of every entry of toks, and the value's
	// distinctiveness weight.
	tw     []tokenWeight
	weight float64
}

// tokenWeight is what the Jaccard merge reads of one token.
type tokenWeight struct {
	ord uint64 // orderKey
	idf float64
}

// prepared is a record with every form derived from it, built once when
// the record enters an Index and owned by it: removing the record frees
// them all.
type prepared struct {
	rec    Record
	id     uint32  // insertion ordinal within the owning Index, never reused
	fields []field // in name order, so sums and tie-breaks do not depend on map order
	// keys are the sorted-neighbourhood blocking keys: the smallest
	// informative token across all fields, and the smallest reversed one
	// for the second pass — robust to field order and naming differences
	// between sources.
	keys [2]string
	pass uint32 // the Index pass that last resolved the record; 0 = never compared
	pos0 int32  // position in the owning Index's pass-0 list, renumbered at every insert
	// gramsOnce builds the fields' trigram profiles when a worker first
	// needs one; prepared is only ever used by pointer, so it is never
	// copied.
	gramsOnce sync.Once
}

// prepare tokenises and lower-cases every value of r exactly once.
func prepare(r Record, id uint32) *prepared {
	p := &prepared{rec: r, id: id, fields: make([]field, 0, len(r.Fields))}
	for name, v := range r.Fields {
		words := 0
		textmine.EachField(v, func(string) bool { words++; return words < 3 })
		lower := strings.ToLower(v)
		toks := textmine.TokenizeLower(lower)
		slices.Sort(toks)
		p.fields = append(p.fields, field{
			name: name, lower: lower, toks: slices.Compact(toks),
			accession: textmine.LooksLikeAccession(v),
			prose:     words >= 3,
		})
	}
	sort.Slice(p.fields, func(i, j int) bool { return p.fields[i].name < p.fields[j].name })
	last := "" // the token whose reversal is smallest
	for _, f := range p.fields {
		for _, tok := range f.toks {
			if len(tok) < 3 {
				continue
			}
			if p.keys[0] == "" || tok < p.keys[0] {
				p.keys[0] = tok
			}
			if last == "" || lessReversed(tok, last) {
				last = tok
			}
		}
	}
	b := []byte(last)
	slices.Reverse(b)
	p.keys[1] = string(b)
	return p
}

// orderKey is a token's first 8 bytes, big-endian and zero-padded. Keys
// order as their tokens do bytewise, so two tokens with different keys
// compare as their keys; only equal keys need the strings.
func orderKey(tok string) uint64 {
	var b [8]byte
	copy(b[:], tok)
	return binary.BigEndian.Uint64(b[:])
}

// lessReversed compares two strings as if both were reversed bytewise.
func lessReversed(a, b string) bool {
	for i, j := len(a)-1, len(b)-1; i >= 0 && j >= 0; i, j = i-1, j-1 {
		if a[i] != b[j] {
			return a[i] < b[j]
		}
	}
	return len(a) < len(b)
}

// resolve makes the record ready to be scored under m as it stands: room
// for the weights on the first call, token order keys and IDF and value
// weight on every call. It runs in the serial part of a pass; the worker pool then reads
// the record only, but for the trigram profiles (grams).
func (p *prepared) resolve(m *Matcher) {
	for i := range p.fields {
		f := &p.fields[i]
		if f.tw == nil {
			f.tw = make([]tokenWeight, len(f.toks))
		}
		for k, tok := range f.toks {
			f.tw[k] = tokenWeight{orderKey(tok), m.tokenIDF(tok)}
		}
		f.weight = m.weightLower(f.lower)
	}
}

// grams returns the trigram profile of field i, building those of every
// field that is not prose on the first call. Workers scoring different
// pairs of one record may call it at once.
func (p *prepared) grams(i int) []textmine.GramRun {
	p.gramsOnce.Do(func() {
		for k := range p.fields {
			if f := &p.fields[k]; !f.prose {
				f.grams = textmine.QGramProfile(f.lower, 3)
			}
		}
	})
	return p.fields[i].grams
}

// fieldSim is the one place two field values, field i of a and field j
// of b, are compared. The measure goes by shape: IDF-weighted token
// Jaccard for long multi-token text, q-gram Dice for long unbroken
// values, Jaro-Winkler for short strings, with exact match
// short-circuiting to 1. Every branch is symmetric in its arguments
// (textmine.TestJaroWinklerSymmetric covers the one that is not so by
// construction), so a pair of records needs each cell of its
// field-by-field matrix once, whichever direction reads it.
func fieldSim(a, b *prepared, i, j int) float64 {
	if s, ok := cheapSim(&a.fields[i], &b.fields[j]); ok {
		return s
	}
	return costlySim(a, b, i, j)
}

// cheapSim is fieldSim's value for every shape but the two costly ones;
// ok is false when the cell needs q-gram Dice or Jaro-Winkler.
func cheapSim(a, b *field) (sim float64, ok bool) {
	if a.lower == b.lower {
		return 1, true
	}
	// Identifier-shaped values either match or they don't: approximate
	// similarity between two different accession codes is noise, not
	// evidence.
	if a.accession && b.accession {
		return 0, true
	}
	if a.prose || b.prose {
		// Cross-shape comparisons (a code against prose) carry no signal.
		if a.prose != b.prose && (a.accession || b.accession) {
			return 0, true
		}
		return weightedJaccard(a, b), true
	}
	return 0, false
}

// costlySim is fieldSim for a cell cheapSim leaves open.
func costlySim(a, b *prepared, i, j int) float64 {
	fa, fb := &a.fields[i], &b.fields[j]
	// Long unbroken values — sequences, digests — are outside
	// Jaro-Winkler's design range (short names) and quadratic to compare;
	// q-gram overlap captures their similarity at linear cost.
	if len(fa.lower) >= longValueLen || len(fb.lower) >= longValueLen {
		return textmine.DiceProfiles(a.grams(i), b.grams(j))
	}
	return textmine.JaroWinkler(fa.lower, fb.lower)
}

// weightedJaccard is token Jaccard under the resolved IDF weights, by one
// merge of the two sorted token sets on their order keys.
func weightedJaccard(a, b *field) float64 {
	var inter, union float64
	i, j := 0, 0
	for i < len(a.tw) && j < len(b.tw) {
		c := cmp.Compare(a.tw[i].ord, b.tw[j].ord)
		if c == 0 {
			c = strings.Compare(a.toks[i], b.toks[j])
		}
		switch {
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
	for ; i < len(a.tw); i++ {
		union += a.tw[i].idf
	}
	for ; j < len(b.tw); j++ {
		union += b.tw[j].idf
	}
	if union == 0 {
		return 0
	}
	return inter / union
}

// Matcher computes record similarity with value-distinctiveness weights:
// a field whose value is shared by many records (e.g. organism = "Homo
// sapiens") carries little identity evidence, while a rare value (a name
// or description) carries much. Weights are IDF-style over exact values.
type Matcher struct {
	valueCount map[string]int
	// tokenDF counts, per token, in how many field values it occurs, so
	// long-text comparison can down-weight template words ("crystal
	// structure of ...") that appear in every record.
	tokenDF map[string]int
	values  int
	records int
}

// NewMatcher indexes the value and token frequencies of a record set.
func NewMatcher(records []Record) *Matcher {
	m := &Matcher{
		valueCount: make(map[string]int),
		tokenDF:    make(map[string]int),
	}
	for _, r := range records {
		m.add(prepare(r, 0))
	}
	return m
}

// add folds one record into the frequency tables. All counts are
// additive, so the incremental duplicate index can keep one Matcher
// current as sources are integrated.
func (m *Matcher) add(p *prepared) {
	m.records++
	for _, f := range p.fields {
		m.valueCount[f.lower]++
		m.values++
		for _, tok := range f.toks {
			m.tokenDF[tok]++
		}
	}
}

// remove exactly reverses add, used to unwind a failed source addition
// from the incremental index.
func (m *Matcher) remove(p *prepared) {
	m.records--
	for _, f := range p.fields {
		if m.valueCount[f.lower]--; m.valueCount[f.lower] <= 0 {
			delete(m.valueCount, f.lower)
		}
		m.values--
		for _, tok := range f.toks {
			if m.tokenDF[tok]--; m.tokenDF[tok] <= 0 {
				delete(m.tokenDF, tok)
			}
		}
	}
}

// tokenIDF returns the informativeness weight of a token.
func (m *Matcher) tokenIDF(tok string) float64 {
	if m == nil || m.values == 0 {
		return 1
	}
	return math.Log(1 + float64(m.values)/float64(m.tokenDF[tok]+1))
}

// weightLower returns the distinctiveness weight of a lower-cased field
// value in [~0.1, 1].
func (m *Matcher) weightLower(lv string) float64 {
	if m == nil {
		return 1
	}
	c := m.valueCount[lv]
	if c <= 2 {
		return 1 // a value shared by exactly a duplicate pair is maximal evidence
	}
	return 1 / (1 + math.Log(float64(c-1)))
}

// bestFields names the strongest field correspondence of a comparison.
// The evidence string is rendered only for pairs that are actually
// flagged — building it per scored pair dominated allocation.
type bestFields struct {
	ka, kb string
	ok     bool
}

func (p bestFields) evidence() string {
	if !p.ok {
		return ""
	}
	return p.ka + "~" + p.kb
}

// score is the record similarity of two resolved records. It is
// symmetric: the field-by-field similarity matrix is filled once, both
// directions are aggregated from it (the second reads the transpose) and
// the stronger one is kept, so results do not depend on comparison order.
// With gate set, a pair whose cheap cells prove it scores at most 0.5 is
// rejected and reads -1 (the gate, in the package comment).
func score(a, b *prepared, gate bool) (float64, bestFields) {
	na, nb := len(a.fields), len(b.fields)
	var buf [64]float64 // an 8x8 comparison stays on the stack
	var openBuf [1]uint64
	sim, open := buf[:], openBuf[:] // open marks the cells cheapSim left
	if na*nb > len(sim) {
		sim, open = make([]float64, na*nb), make([]uint64, (na*nb+63)/64)
	}
	anyOpen := false
	for i := range a.fields {
		for j := range b.fields {
			k := i*nb + j
			s, ok := cheapSim(&a.fields[i], &b.fields[j])
			if !ok {
				s, anyOpen = 1, true // the cell's bound until it is computed
				open[k/64] |= 1 << (k % 64)
			}
			sim[k] = s
		}
	}
	if anyOpen {
		if gate {
			_, _, _, c1 := directed(a.fields, nb, sim, nb, 1)
			_, _, _, c2 := directed(b.fields, na, sim, 1, nb)
			if !c1 && !c2 {
				return -1, bestFields{}
			}
		}
		for w, set := range open {
			for ; set != 0; set &= set - 1 {
				k := w*64 + bits.TrailingZeros64(set)
				sim[k] = costlySim(a, b, k/nb, k%nb)
			}
		}
	}
	s1, i1, j1, _ := directed(a.fields, nb, sim, nb, 1)
	s2, j2, i2, _ := directed(b.fields, na, sim, 1, nb)
	switch {
	case s2 > s1:
		return s2, bestFields{b.fields[j2].name, a.fields[i2].name, true}
	case i1 >= 0:
		return s1, bestFields{a.fields[i1].name, b.fields[j1].name, true}
	}
	return s1, bestFields{}
}

// directed aggregates one direction: for every field of fa its best
// counterpart among the other record's n fields, read from the similarity
// matrix at sim[i*rowStride+j*colStride]. It returns the score, the
// indexes of the strongest correspondence (-1 when there is none) and
// whether the direction is corroborated; an uncorroborated score is
// halved, so it is at most 0.5.
func directed(fa []field, n int, sim []float64, rowStride, colStride int) (score float64, bestI, bestJ int, corroborated bool) {
	// minCorrespondence separates "this field has a counterpart in the
	// other record" from "the other source simply does not model this
	// property". Sources overlap only partly in their models (§4.5), so
	// fields without a counterpart are excluded from the aggregate
	// instead of dragging it toward zero.
	const minCorrespondence = 0.2
	var sum, wsum, bestSim float64
	bestI, bestJ = -1, -1
	hasAnchor := false
	accessionAnchor := false
	support := 0 // corresponding fields with solid similarity
	for i := range fa {
		best, k := 0.0, -1
		for j := 0; j < n; j++ {
			if s := sim[i*rowStride+j*colStride]; s > best {
				best, k = s, j
			}
		}
		if best < minCorrespondence {
			continue
		}
		w := fa[i].weight
		// §5: a shared accession-shaped identifier is decisive evidence
		// ("detecting duplicate objects is easy in this case, because the
		// original PDB accession number is available in all three").
		if best == 1 && fa[i].accession {
			w *= 2
			accessionAnchor = true
		}
		// An anchor is a strongly matching, distinctive field: shared
		// low-information values (an organism name, a method enum) must
		// not carry a duplicate verdict on their own.
		if best >= 0.7 && w >= 0.9 {
			hasAnchor = true
		}
		if best >= 0.4 {
			support++
		}
		sum += w * best
		wsum += w
		if best*w > bestSim {
			bestSim = best * w
			bestI, bestJ = i, k
		}
	}
	if wsum == 0 {
		return 0, -1, -1, false
	}
	score = sum / wsum
	// Corroboration: one coincidentally shared value — however rare —
	// is not a duplicate verdict. Demand an anchor plus a second
	// supporting correspondence. Exempt: single-field records, and exact
	// accession matches, which are decisive on their own (§5).
	corroborated = accessionAnchor || (hasAnchor && (support >= 2 || len(fa) < 2))
	if !corroborated {
		score *= 0.5
	}
	return score, bestI, bestJ, corroborated
}

// BlockingMode selects the candidate-generation strategy.
type BlockingMode int

const (
	// SortedNeighborhood sorts records by a blocking key and compares
	// only records within a sliding window — the standard scalable
	// method.
	SortedNeighborhood BlockingMode = iota
	// FullPairwise compares every cross-source pair (the ablation
	// baseline).
	FullPairwise
)

// Options configures duplicate detection.
type Options struct {
	// Threshold is the minimal record similarity to flag a duplicate
	// (default 0.6).
	Threshold float64
	// Blocking selects the candidate generation mode.
	Blocking BlockingMode
	// Workers bounds the worker pool scoring candidate pairs concurrently.
	// Values <= 1 score serially. Results are identical either way:
	// candidate generation stays serial and scores land in indexed slots.
	Workers int
}

func (o *Options) fill() {
	if o.Threshold <= 0 {
		o.Threshold = 0.6
	}
}

// window is the sorted-neighbourhood window: each record is compared with
// the window records either side of it in each pass's sorted order.
const window = 20

// Match is one flagged duplicate pair.
type Match struct {
	A, B       Record
	Similarity float64
	Evidence   string
}

// Stats reports the comparisons performed.
type Stats struct {
	Records     int
	Comparisons int
	// Scored counts the comparisons scored in full, Dice and Jaro-Winkler
	// cells included: those the gate let through, all at a threshold <= 0.5.
	Scored  int
	Flagged int
}

// FindDuplicates flags duplicate pairs between records of different
// sources. Same-source pairs are also reported (duplicates can exist
// within one source) but self-pairs never are. Candidate generation is
// serial and deterministic; similarity scoring fans out over
// Options.Workers.
func FindDuplicates(records []Record, opts Options) ([]Match, Stats) {
	matches, stats, _ := FindDuplicatesContext(context.Background(), records, opts)
	return matches, stats
}

// FindDuplicatesContext is FindDuplicates with cancellation: when ctx is
// canceled mid-scoring the partial result is discarded and ctx.Err() is
// returned. A whole-set run is an empty Index taking every record as one
// batch: same candidates in the same order, same frequency weights.
func FindDuplicatesContext(ctx context.Context, records []Record, opts Options) ([]Match, Stats, error) {
	return NewIndex().FindNewContext(ctx, records, opts)
}

// scorePairs computes record similarity for every candidate pair on the
// worker pool (indexed slots keep the output order deterministic) and
// returns the pairs at or above the threshold and the number scored in
// full. Above a threshold of 0.5 the gate rejects the pairs that cannot
// reach it. Every record in pairs must have been resolved; the workers
// only read them, and build trigram profiles. A pair names its records
// by their positions in recs.
func scorePairs(ctx context.Context, recs []*prepared, pairs [][2]int32, opts Options) ([]Match, int, error) {
	gate := opts.Threshold > 0.5
	sims := make([]float64, len(pairs))
	if err := parallel.ForChunked(ctx, opts.Workers, len(pairs), 32, func(i int) {
		sims[i], _ = score(recs[pairs[i][0]], recs[pairs[i][1]], gate)
	}); err != nil {
		return nil, 0, err
	}
	scored := 0
	var matches []Match
	for i, sim := range sims {
		if sim >= 0 {
			scored++
		}
		if sim >= opts.Threshold {
			// Few pairs are flagged: naming their evidence by a second
			// score is cheaper than keeping it for every pair.
			a, b := recs[pairs[i][0]], recs[pairs[i][1]]
			_, best := score(a, b, false)
			matches = append(matches, Match{A: a.rec, B: b.rec, Similarity: sim, Evidence: best.evidence()})
		}
	}
	return matches, scored, nil
}

// sortMatches orders matches by similarity descending, then pair key.
func sortMatches(matches []Match) {
	sort.Slice(matches, func(i, j int) bool {
		if matches[i].Similarity != matches[j].Similarity {
			return matches[i].Similarity > matches[j].Similarity
		}
		return pairKey(matches[i].A, matches[i].B) < pairKey(matches[j].A, matches[j].B)
	})
}

func pairKey(a, b Record) string {
	ka := a.Source + "\x00" + a.Accession
	kb := b.Source + "\x00" + b.Accession
	if kb < ka {
		ka, kb = kb, ka
	}
	return ka + "\x01" + kb
}

// Links converts matches into duplicate links for the metadata repository.
func Links(matches []Match) []metadata.Link {
	out := make([]metadata.Link, 0, len(matches))
	for _, m := range matches {
		out = append(out, metadata.Link{
			Type:       metadata.LinkDuplicate,
			From:       m.A.Ref(),
			To:         m.B.Ref(),
			Confidence: m.Similarity,
			Method:     "dup:" + m.Evidence,
		})
	}
	return out
}

// Cluster groups matched records into duplicate clusters via union-find.
// Each cluster lists object refs; only one representative of each cluster
// should be returned in query answers (§4.5).
func Cluster(matches []Match) [][]metadata.ObjectRef {
	parent := make(map[string]string)
	refOf := make(map[string]metadata.ObjectRef)
	var find func(string) string
	find = func(x string) string {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	add := func(r metadata.ObjectRef) string {
		k := r.Key()
		if _, ok := parent[k]; !ok {
			parent[k] = k
			refOf[k] = r
		}
		return k
	}
	for _, m := range matches {
		a, b := add(m.A.Ref()), add(m.B.Ref())
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	groups := make(map[string][]metadata.ObjectRef)
	for k := range parent {
		root := find(k)
		groups[root] = append(groups[root], refOf[k])
	}
	var out [][]metadata.ObjectRef
	for _, g := range groups {
		sort.Slice(g, func(i, j int) bool { return g[i].Key() < g[j].Key() })
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0].Key() < out[j][0].Key() })
	return out
}

// Conflict is one field-level disagreement between flagged duplicates —
// "different sources might contradict each other in the data they store
// about an object" (§4.5).
type Conflict struct {
	FieldA, FieldB string
	ValueA, ValueB string
	// Similarity of the conflicting values (low = hard conflict).
	Similarity float64
}

// Conflicts pairs up the most similar fields of a match and reports those
// whose values disagree.
func Conflicts(m Match) []Conflict {
	a, b := prepare(m.A, 0), prepare(m.B, 0)
	a.resolve(nil)
	b.resolve(nil)
	var out []Conflict
	for i := range a.fields {
		fa := &a.fields[i]
		best, bestSim := -1, -1.0
		for j := range b.fields {
			if s := fieldSim(a, b, i, j); s > bestSim {
				best, bestSim = j, s
			}
		}
		if best < 0 {
			continue
		}
		kb := b.fields[best].name
		va, vb := m.A.Fields[fa.name], m.B.Fields[kb]
		// A conflict is a corresponding field pair (similar enough to be
		// about the same property) whose raw values disagree.
		if bestSim >= 0.3 && !strings.EqualFold(va, vb) {
			out = append(out, Conflict{
				FieldA: fa.name, FieldB: kb,
				ValueA: va, ValueB: vb,
				Similarity: bestSim,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].FieldA != out[j].FieldA {
			return out[i].FieldA < out[j].FieldA
		}
		return out[i].FieldB < out[j].FieldB
	})
	return out
}

// String renders a conflict.
func (c Conflict) String() string {
	return fmt.Sprintf("%s=%q vs %s=%q (sim %.2f)", c.FieldA, c.ValueA, c.FieldB, c.ValueB, c.Similarity)
}
