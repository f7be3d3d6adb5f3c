// Package search implements ALADIN's search access mode (§4.6): "a
// full-text search on all stored data and a focused search restricted to
// certain vertical (e.g., a single attribute-type) and horizontal
// partitions (e.g., only on primary objects) of the data. Ranking
// algorithms order the search results based on similarity of the result
// to the query." The paper delegates this to commercial extenders; here
// it is an inverted index with BM25 ranking built from scratch.
//
// The index numbers each distinct term once, at its first occurrence (the
// only time a term is copied), and keeps one posting list per term id in
// document order. A value is stored as an entry of its text, its owning
// accession and a column id into a small table of what the values of one
// column share (source, relations, column name, primary flag); a
// Document is rebuilt only for a hit.
package search

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strings"
	"unicode/utf8"

	"repro/internal/metadata"
	"repro/internal/textmine"
)

// Document is one indexed unit: a field value belonging to an object.
type Document struct {
	Object   metadata.ObjectRef
	Relation string
	Column   string
	Text     string
	// Primary marks values from a primary relation (for horizontal
	// partition filtering).
	Primary bool
}

// Result is one ranked search hit.
type Result struct {
	Document Document
	Score    float64
}

// Filter restricts a search to data partitions.
type Filter struct {
	// Sources restricts to the named sources (empty = all).
	Sources []string
	// Columns restricts to the named columns, the vertical partition
	// (empty = all).
	Columns []string
	// PrimaryOnly restricts to primary-relation values, the horizontal
	// partition.
	PrimaryOnly bool
}

func (f Filter) match(c column) bool {
	if f.PrimaryOnly && !c.primary {
		return false
	}
	if len(f.Sources) > 0 && !containsFold(f.Sources, c.source) {
		return false
	}
	return len(f.Columns) == 0 || containsFold(f.Columns, c.name)
}

func containsFold(list []string, s string) bool {
	for _, x := range list {
		if strings.EqualFold(x, s) {
			return true
		}
	}
	return false
}

// column is what the values of one column share; object is the relation
// of the objects owning them.
type column struct {
	source, object, relation, name string
	primary                        bool
}

// entry is one indexed value; col indexes Index.cols.
type entry struct {
	text, accession string
	col             int32
}

// posting is a term's occurrences in one document.
type posting struct{ doc, tf int32 }

// Index is a BM25-ranked inverted index.
type Index struct {
	entries  []entry
	lens     []int32 // terms per entry
	totalLen int
	cols     []column
	colIDs   map[column]int32
	keys     []string // per column, ObjectRef.Key up to the accession
	termIDs  map[string]int32
	postings [][]posting // by term id, each in document order
}

// NewIndex creates an empty index.
func NewIndex() *Index {
	return &Index{colIDs: make(map[column]int32), termIDs: make(map[string]int32)}
}

// columnID numbers c in ix's column table.
func (ix *Index) columnID(c column) int32 {
	if n := len(ix.cols); n > 0 && ix.cols[n-1] == c {
		return int32(n - 1)
	}
	id, ok := ix.colIDs[c]
	if !ok {
		id = int32(len(ix.cols))
		ix.colIDs[c] = id
		ix.cols = append(ix.cols, c)
		ix.keys = append(ix.keys, metadata.ObjectRef{Source: c.source, Relation: c.object}.Key())
	}
	return id
}

// termID returns term's id. A term ix does not hold is numbered, as a
// copy, when add is set, and is -1 otherwise.
func (ix *Index) termID(term string, add bool) int32 {
	if id, ok := ix.termIDs[term]; ok {
		return id
	} else if !add {
		return -1
	}
	return ix.number(strings.Clone(term))
}

// number gives term, a string ix may keep, the next term id.
func (ix *Index) number(term string) int32 {
	id := int32(len(ix.postings))
	ix.termIDs[term] = id
	ix.postings = append(ix.postings, nil)
	return id
}

// eachTerm calls fn with the id of each term of text as the index counts
// it: its tokens, then each accession-shaped word, trimmed of
// punctuation and lower-cased. add is termID's. Lower-casing ASCII keeps
// every byte's class, so an ASCII text's words are cut from its
// lower-cased copy.
func (ix *Index) eachTerm(text string, add bool, fn func(id int32)) {
	lower, words := strings.ToLower(text), text
	textmine.EachToken(lower, func(tok string) { fn(ix.termID(tok, add)) })
	if !strings.ContainsFunc(text, func(r rune) bool { return r >= utf8.RuneSelf }) {
		words = lower
	}
	textmine.EachField(words, func(w string) bool {
		if w = strings.Trim(w, ".,;:()[]{}\"'"); textmine.LooksLikeAccession(w) {
			fn(ix.termID(strings.ToLower(w), add))
		}
		return true
	})
}

// Add indexes one document.
func (ix *Index) Add(d Document) {
	doc := int32(len(ix.entries))
	ix.entries = append(ix.entries, entry{text: d.Text, accession: d.Object.Accession, col: ix.columnID(column{
		source: d.Object.Source, object: d.Object.Relation, relation: d.Relation, name: d.Column, primary: d.Primary,
	})})
	var n int32
	ix.eachTerm(d.Text, true, func(id int32) {
		n++
		if posts := ix.postings[id]; len(posts) > 0 && posts[len(posts)-1].doc == doc {
			posts[len(posts)-1].tf++
		} else {
			ix.postings[id] = append(posts, posting{doc: doc, tf: 1})
		}
	})
	ix.lens = append(ix.lens, n)
	ix.totalLen += int(n)
}

// Len returns the number of indexed documents.
func (ix *Index) Len() int { return len(ix.entries) }

// Merge folds another index's documents into ix, remapping document,
// column and term ids. It lets callers tokenize and index a batch off to
// the side (outside any lock protecting ix) and then splice it in
// cheaply: one lookup per distinct column and term of other, then an
// append per posting, with no re-tokenization. An empty ix adopts
// other's tables instead, copying nothing. Ranking after a merge is
// identical to having Added the documents directly in order. Merge takes
// ownership of other: the caller must not use it afterwards.
func (ix *Index) Merge(other *Index) {
	if other == nil || len(other.entries) == 0 {
		return
	}
	if len(ix.entries) == 0 {
		*ix = *other
		return
	}
	base := int32(len(ix.entries))
	cols := make([]int32, len(other.cols))
	for i, c := range other.cols {
		cols[i] = ix.columnID(c)
	}
	for _, e := range other.entries {
		e.col = cols[e.col]
		ix.entries = append(ix.entries, e)
	}
	ix.lens = append(ix.lens, other.lens...)
	ix.totalLen += other.totalLen
	for term, t := range other.termIDs {
		id, ok := ix.termIDs[term]
		if !ok { // other's terms are its own copies
			id = ix.number(term)
		}
		dst := slices.Grow(ix.postings[id], len(other.postings[t]))
		for _, p := range other.postings[t] {
			dst = append(dst, posting{doc: p.doc + base, tf: p.tf})
		}
		ix.postings[id] = dst
	}
}

// BM25 parameters (standard values).
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// Search returns documents matching the query ranked by BM25, after
// applying the filter. limit <= 0 returns everything. Equal scores rank
// by object key, then in indexing order, so equal calls return equal
// results.
func (ix *Index) Search(query string, f Filter, limit int) []Result {
	var ids []int32 // the query's distinct known terms, in query order
	ix.eachTerm(query, false, func(id int32) {
		if id >= 0 && !slices.Contains(ids, id) {
			ids = append(ids, id)
		}
	})
	if len(ids) == 0 {
		return nil
	}
	colOK := make([]bool, len(ix.cols))
	for c, col := range ix.cols {
		colOK[c] = f.match(col)
	}
	type hit struct {
		doc   int32
		score float64
	}
	var hits []hit
	at := make(map[int32]int) // doc -> its hit
	n, avgLen := float64(len(ix.entries)), float64(ix.totalLen)/float64(len(ix.entries))
	if avgLen == 0 {
		avgLen = 1
	}
	for _, id := range ids {
		df := float64(len(ix.postings[id]))
		idf := math.Log((n-df+0.5)/(df+0.5) + 1)
		for _, p := range ix.postings[id] {
			if !colOK[ix.entries[p.doc].col] {
				continue
			}
			i, ok := at[p.doc]
			if !ok {
				i, at[p.doc] = len(hits), len(hits)
				hits = append(hits, hit{doc: p.doc})
			}
			dl, tf := float64(ix.lens[p.doc]), float64(p.tf)
			hits[i].score += idf * tf * (bm25K1 + 1) / (tf + bm25K1*(1-bm25B+bm25B*dl/avgLen))
		}
	}
	slices.SortFunc(hits, func(a, b hit) int {
		ea, eb := ix.entries[a.doc], ix.entries[b.doc]
		if c := cmp.Compare(b.score, a.score); c != 0 {
			return c
		} else if ka, kb := ix.keys[ea.col], ix.keys[eb.col]; ka != kb {
			return strings.Compare(ka+ea.accession, kb+eb.accession)
		} else if c := strings.Compare(ea.accession, eb.accession); c != 0 {
			return c
		}
		return cmp.Compare(a.doc, b.doc)
	})
	if limit > 0 && len(hits) > limit {
		hits = hits[:limit]
	}
	results := make([]Result, len(hits))
	for i, h := range hits {
		e := ix.entries[h.doc]
		c := ix.cols[e.col]
		results[i] = Result{Score: h.score, Document: Document{
			Object:   metadata.ObjectRef{Source: c.source, Relation: c.object, Accession: e.accession},
			Relation: c.relation, Column: c.name, Text: e.text, Primary: c.primary,
		}}
	}
	return results
}

// Snippet extracts a short context window around the first query-term
// occurrence in a result's text, for display in result lists. width is
// the approximate number of characters around the match (default 60).
func Snippet(r Result, query string, width int) string {
	if width <= 0 {
		width = 60
	}
	text := r.Document.Text
	lower := strings.ToLower(text)
	pos := -1
	matchLen := 0
	textmine.EachToken(strings.ToLower(query), func(term string) {
		if i := strings.Index(lower, term); i >= 0 && (pos < 0 || i < pos) {
			pos = i
			matchLen = len(term)
		}
	})
	if pos < 0 {
		if len(text) <= width {
			return text
		}
		return text[:width] + "…"
	}
	start, end := max(pos-width/2, 0), min(pos+matchLen+width/2, len(text))
	// Align to word boundaries.
	for start > 0 && text[start] != ' ' {
		start--
	}
	for end < len(text) && text[end] != ' ' {
		end++
	}
	out := strings.TrimSpace(text[start:end])
	if start > 0 {
		out = "…" + out
	}
	if end < len(text) {
		out += "…"
	}
	return out
}

// GroupByObject merges per-field results into per-object results,
// summing scores — the object-level view users browse from.
func GroupByObject(results []Result) []Result {
	byObj := make(map[string]*Result)
	var order []string
	for _, r := range results {
		k := r.Document.Object.Key()
		if cur, ok := byObj[k]; ok {
			cur.Score += r.Score
			continue
		}
		cp := r
		byObj[k] = &cp
		order = append(order, k)
	}
	out := make([]Result, 0, len(byObj))
	for _, k := range order {
		out = append(out, *byObj[k])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Document.Object.Key() < out[j].Document.Object.Key()
	})
	return out
}
