package search

import (
	"math"
	"sort"
	"strings"

	"repro/internal/textmine"
)

// oracleIndex is the index as it was before terms were numbered and
// documents compacted: every Document kept whole, postings in a map by
// term string, and each document's term frequencies counted in a map of
// its own. It carries the two later rules, query words trimmed as indexed
// words are and ties broken by document id, so it is the exact oracle of
// every answer and score.
type oracleIndex struct {
	docs     []Document
	lens     []int
	postings map[string][]oraclePosting
	totalLen int
}

type oraclePosting struct {
	doc, tf int
}

func newOracle() *oracleIndex {
	return &oracleIndex{postings: make(map[string][]oraclePosting)}
}

// oracleTerms lists a text's terms as the index counts them: its tokens,
// then each accession-shaped word, trimmed and lower-cased.
func oracleTerms(text string) []string {
	toks := textmine.TokenizeLower(strings.ToLower(text))
	for _, w := range strings.Fields(text) {
		w = strings.Trim(w, ".,;:()[]{}\"'")
		if textmine.LooksLikeAccession(w) {
			toks = append(toks, strings.ToLower(w))
		}
	}
	return toks
}

func (ix *oracleIndex) Add(d Document) {
	id := len(ix.docs)
	ix.docs = append(ix.docs, d)
	toks := oracleTerms(d.Text)
	tf := make(map[string]int, len(toks))
	for _, t := range toks {
		tf[t]++
	}
	ix.lens = append(ix.lens, len(toks))
	ix.totalLen += len(toks)
	for term, f := range tf {
		ix.postings[term] = append(ix.postings[term], oraclePosting{doc: id, tf: f})
	}
}

func (ix *oracleIndex) Merge(other *oracleIndex) {
	base := len(ix.docs)
	ix.docs = append(ix.docs, other.docs...)
	ix.lens = append(ix.lens, other.lens...)
	ix.totalLen += other.totalLen
	for term, posts := range other.postings {
		for _, p := range posts {
			ix.postings[term] = append(ix.postings[term], oraclePosting{doc: p.doc + base, tf: p.tf})
		}
	}
}

func (f Filter) matchDoc(d Document) bool {
	if f.PrimaryOnly && !d.Primary {
		return false
	}
	if len(f.Sources) > 0 && !containsFold(f.Sources, d.Object.Source) {
		return false
	}
	return len(f.Columns) == 0 || containsFold(f.Columns, d.Column)
}

func (ix *oracleIndex) Search(query string, f Filter, limit int) []Result {
	if len(ix.docs) == 0 {
		return nil
	}
	qTokens := oracleTerms(query)
	if len(qTokens) == 0 {
		return nil
	}
	avgLen := float64(ix.totalLen) / float64(len(ix.docs))
	if avgLen == 0 {
		avgLen = 1
	}
	scores := make(map[int]float64)
	n := float64(len(ix.docs))
	seenTerm := make(map[string]bool)
	for _, term := range qTokens {
		if seenTerm[term] {
			continue
		}
		seenTerm[term] = true
		posts := ix.postings[term]
		if len(posts) == 0 {
			continue
		}
		df := float64(len(posts))
		idf := math.Log((n-df+0.5)/(df+0.5) + 1)
		for _, p := range posts {
			dl := float64(ix.lens[p.doc])
			tf := float64(p.tf)
			scores[p.doc] += idf * tf * (bm25K1 + 1) / (tf + bm25K1*(1-bm25B+bm25B*dl/avgLen))
		}
	}
	type hit struct {
		doc   int
		score float64
	}
	var hits []hit
	for doc, s := range scores {
		if f.matchDoc(ix.docs[doc]) {
			hits = append(hits, hit{doc, s})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		a, b := hits[i], hits[j]
		if a.score != b.score {
			return a.score > b.score
		}
		if ka, kb := ix.docs[a.doc].Object.Key(), ix.docs[b.doc].Object.Key(); ka != kb {
			return ka < kb
		}
		return a.doc < b.doc
	})
	if limit > 0 && len(hits) > limit {
		hits = hits[:limit]
	}
	var results []Result
	for _, h := range hits {
		results = append(results, Result{Document: ix.docs[h.doc], Score: h.score})
	}
	return results
}
