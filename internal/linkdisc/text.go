package linkdisc

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/metadata"
	"repro/internal/parallel"
	"repro/internal/textmine"
)

// TextForm is a source prepared for §4.4 text links: one document per
// primary object with free-text annotation (textDocs), held as its
// distinct tokens in sorted order with their counts, and the document
// frequency of every token over the source. It does not depend on how
// the source was batched — a source's form is its batches' forms
// appended in order — so none of it is persisted.
type TextForm struct {
	acc []string // document i's accession
	// Document i's tokens are terms[start[i]:start[i+1]], occurring
	// tf[j] times each.
	start []int32
	terms []string
	tf    []int32
	df    map[string]int32
}

// newTextForm tokenizes docs once.
func newTextForm(docs []textDoc) *TextForm {
	f := &TextForm{start: make([]int32, 1, len(docs)+1), df: make(map[string]int32)}
	for _, d := range docs {
		toks := textmine.TokenizeLower(strings.ToLower(d.text))
		slices.Sort(toks)
		for i, tok := range toks {
			if i > 0 && tok == toks[i-1] {
				f.tf[len(f.tf)-1]++
				continue
			}
			f.terms = append(f.terms, tok)
			f.tf = append(f.tf, 1)
			f.df[tok]++
		}
		f.acc = append(f.acc, d.accession)
		f.start = append(f.start, int32(len(f.terms)))
	}
	return f
}

// fillText builds s's text form if it has none.
func fillText(s *Source) {
	if s.Text == nil {
		s.Text = newTextForm(textDocs(s))
	}
}

// Append grows f, the form of a source, in place by b, the form of a
// batch appended to it — b's documents follow f's, as the primary
// relation's append branch orders their tuples — and returns f. It
// returns nil when either form is missing; the source's form is then
// rebuilt from the whole source when next needed.
func (f *TextForm) Append(b *TextForm) *TextForm {
	if f == nil || b == nil {
		return nil
	}
	base := int32(len(f.terms))
	for _, s := range b.start[1:] {
		f.start = append(f.start, base+s)
	}
	f.acc = append(f.acc, b.acc...)
	f.terms = append(f.terms, b.terms...)
	f.tf = append(f.tf, b.tf...)
	for term, n := range b.df {
		f.df[term] += n
	}
	return f
}

// doc returns the bounds of document i's tokens.
func (f *TextForm) doc(i int) (lo, hi int32) { return f.start[i], f.start[i+1] }

// weighted is a text form with its documents' L2-normalized TF-IDF
// vectors in one corpus, as weights aligned with terms.
type weighted struct {
	*TextForm
	w []float64
}

// weigh weighs the documents of f and t in the corpus of both: a term in
// k of its N documents weighs log((N+1)/(k+1)) per occurrence. Norms
// are summed in token order.
func weigh(f, t *TextForm) (weighted, weighted) {
	n := len(f.acc) + len(t.acc)
	idf := make([]float64, n+1)
	for k := range idf {
		idf[k] = math.Log(float64(n+1) / float64(k+1))
	}
	return weighted{f, f.weights(t, idf)}, weighted{t, t.weights(f, idf)}
}

// weights returns f's document vectors in the corpus of f and other,
// where a term in k documents weighs idf[k].
func (f *TextForm) weights(other *TextForm, idf []float64) []float64 {
	w := make([]float64, len(f.terms))
	for i := range f.acc {
		lo, hi := f.doc(i)
		var norm float64
		for j := lo; j < hi; j++ {
			term := f.terms[j]
			w[j] = float64(f.tf[j]) * idf[f.df[term]+other.df[term]]
			norm += w[j] * w[j]
		}
		if norm > 0 {
			norm = math.Sqrt(norm)
			for j := lo; j < hi; j++ {
				w[j] /= norm
			}
		}
	}
	return w
}

// postings maps each term in at most maxDF of f's documents to those
// documents, in order. The lists share one array.
func (f *TextForm) postings(maxDF int) map[string][]int32 {
	inv := make(map[string][]int32, len(f.df))
	flat := make([]int32, len(f.terms))
	off := 0
	for term, k := range f.df {
		if int(k) <= maxDF {
			inv[term] = flat[off : off : off+int(k)]
			off += int(k)
		}
	}
	for i := range f.acc {
		lo, hi := f.doc(i)
		for _, term := range f.terms[lo:hi] {
			if p, ok := inv[term]; ok {
				inv[term] = append(p, int32(i))
			}
		}
	}
	return inv
}

// cosine is the dot product of a's document i and b's document j, summed
// in term order by one merge of their sorted terms.
func (a weighted) cosine(i int, b weighted, j int) float64 {
	alo, ahi := a.doc(i)
	blo, bhi := b.doc(j)
	var dot float64
	for alo < ahi && blo < bhi {
		switch c := strings.Compare(a.terms[alo], b.terms[blo]); {
		case c < 0:
			alo++
		case c > 0:
			blo++
		default:
			dot += a.w[alo] * b.w[blo]
			alo++
			blo++
		}
	}
	return dot
}

// textChunk is how many documents one task of the worker pool scores.
const textChunk = 64

// discoverTextLinks compares the free-text annotation of primary objects
// across the two sources with TF-IDF cosine — raw-count TF, IDF
// log((N+1)/(df+1)) over the N documents of both sources, L2 norm — using
// a shared-term inverted index over to's documents for candidate
// generation instead of the full cross product. Both sources' prepared
// forms are built here if missing, so no call tokenizes a source twice.
func (e *Engine) discoverTextLinks(ctx context.Context, from, to *Source) ([]metadata.Link, int, error) {
	fillText(from)
	fillText(to)
	f, t := from.Text, to.Text
	if len(f.acc) == 0 || len(t.acc) == 0 {
		return nil, 0, nil
	}
	fw, tw := weigh(f, t)
	// The inverted index skips terms in more than a quarter of to's
	// documents.
	inv := t.postings(max(len(t.acc)/4, 2))

	// Candidate scoring fans out over the worker pool in chunks of
	// documents; each document's candidates are scored in to's order.
	type docResult struct {
		comparisons int
		links       []metadata.Link
	}
	results := make([]docResult, len(f.acc))
	chunks := (len(f.acc) + textChunk - 1) / textChunk
	if err := parallel.For(ctx, e.opts.Workers, chunks, func(c int) {
		// seen[i] == d+1 once to's document i is a candidate of from's d.
		seen := make([]int32, len(t.acc))
		var cands []int32
		for d := c * textChunk; d < min((c+1)*textChunk, len(f.acc)); d++ {
			lo, hi := f.doc(d)
			cands = cands[:0]
			for _, term := range f.terms[lo:hi] {
				for _, i := range inv[term] {
					if seen[i] != int32(d+1) {
						seen[i] = int32(d + 1)
						cands = append(cands, i)
					}
				}
			}
			slices.Sort(cands)
			res := &results[d]
			res.comparisons = len(cands)
			for _, i := range cands {
				sim := fw.cosine(d, tw, int(i))
				if sim < e.opts.MinTextCosine {
					continue
				}
				res.links = append(res.links, metadata.Link{
					Type:       metadata.LinkText,
					From:       primaryRef(from, f.acc[d]),
					To:         primaryRef(to, t.acc[i]),
					Confidence: sim,
					Method:     fmt.Sprintf("text:cosine=%.2f", sim),
				})
			}
		}
	}); err != nil {
		return nil, 0, err
	}
	comparisons := 0
	var out []metadata.Link
	for _, res := range results {
		comparisons += res.comparisons
		out = append(out, res.links...)
	}
	return out, comparisons, nil
}
