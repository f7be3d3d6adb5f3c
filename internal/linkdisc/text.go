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
// distinct terms with their counts, and the document frequency of every
// term over the source. Terms are integer ids from the dictionary of the
// engine that built the form (termDict); each document lists its ids in
// the order of the terms' strings, so weights and dot products are summed
// in token order whatever ids the terms drew. A form does not depend on
// how the source was batched — a source's form is its batches' forms
// appended in order — so none of it is persisted.
type TextForm struct {
	dict *termDict
	acc  []string // document i's accession
	// Document i's terms are ids[start[i]:start[i+1]], occurring tf[j]
	// times each.
	start []int32
	ids   []uint32
	tf    []int32
	// df[id] is the number of documents holding term id, up to the
	// largest id the form holds.
	df []int32
}

// termDict numbers the distinct tokens of every text form one engine
// builds, so that forms compare terms as integers. A term keeps its id
// for the dictionary's lifetime; only forms of one dictionary meet.
type termDict struct{ ids map[string]uint32 }

func newTermDict() *termDict { return &termDict{ids: make(map[string]uint32)} }

// form tokenizes docs once, numbering terms seen for the first time.
func (dict *termDict) form(docs []textDoc) *TextForm {
	f := &TextForm{dict: dict, start: make([]int32, 1, len(docs)+1)}
	for _, d := range docs {
		toks := textmine.TokenizeLower(strings.ToLower(d.text))
		slices.Sort(toks)
		for i, tok := range toks {
			if i > 0 && tok == toks[i-1] {
				f.tf[len(f.tf)-1]++
				continue
			}
			id, ok := dict.ids[tok]
			if !ok {
				id = uint32(len(dict.ids))
				dict.ids[strings.Clone(tok)] = id
			}
			f.ids = append(f.ids, id)
			f.tf = append(f.tf, 1)
		}
		f.acc = append(f.acc, d.accession)
		f.start = append(f.start, int32(len(f.ids)))
	}
	f.countDF(f.ids)
	return f
}

// countDF adds one document to the frequency of each of ids, the terms
// of some documents, each distinct within its document.
func (f *TextForm) countDF(ids []uint32) {
	for _, id := range ids {
		for int(id) >= len(f.df) {
			f.df = append(f.df, 0)
		}
		f.df[id]++
	}
}

// dfOf is the number of f's documents holding term id.
func (f *TextForm) dfOf(id uint32) int32 {
	if int(id) < len(f.df) {
		return f.df[id]
	}
	return 0
}

// Append grows f, the form of a source, in place by b, the form of a
// batch appended to it — b's documents follow f's, as the primary
// relation's append branch orders their tuples — and returns f. It
// returns nil when either form is missing or the two were numbered by
// different dictionaries; the source's form is then rebuilt from the
// whole source when next needed.
func (f *TextForm) Append(b *TextForm) *TextForm {
	if f == nil || b == nil || f.dict != b.dict {
		return nil
	}
	base := int32(len(f.ids))
	for _, s := range b.start[1:] {
		f.start = append(f.start, base+s)
	}
	f.acc = append(f.acc, b.acc...)
	f.ids = append(f.ids, b.ids...)
	f.tf = append(f.tf, b.tf...)
	f.countDF(b.ids)
	return f
}

// doc returns the bounds of document i's terms.
func (f *TextForm) doc(i int) (lo, hi int32) { return f.start[i], f.start[i+1] }

// weighted is a text form with its documents' L2-normalized TF-IDF
// vectors in one corpus, as weights aligned with ids.
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
	w := make([]float64, len(f.ids))
	for i := range f.acc {
		lo, hi := f.doc(i)
		var norm float64
		for j := lo; j < hi; j++ {
			id := f.ids[j]
			w[j] = float64(f.tf[j]) * idf[f.df[id]+other.dfOf(id)]
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

// postings is an inverted index over a form's documents: term id's
// documents, in order, are docs[off[id]:off[id+1]].
type postings struct{ off, docs []int32 }

// postings indexes each term in at most maxDF of f's documents.
func (f *TextForm) postings(maxDF int) postings {
	off := make([]int32, len(f.df)+1)
	for id, k := range f.df {
		if int(k) > maxDF {
			k = 0
		}
		off[id+1] = off[id] + k
	}
	p := postings{off, make([]int32, off[len(f.df)])}
	next := slices.Clone(off[:len(f.df)])
	for i := range f.acc {
		lo, hi := f.doc(i)
		for _, id := range f.ids[lo:hi] {
			if next[id] < off[id+1] {
				p.docs[next[id]] = int32(i)
				next[id]++
			}
		}
	}
	return p
}

// of returns the documents indexed under term id.
func (p postings) of(id uint32) []int32 {
	if int(id)+1 >= len(p.off) {
		return nil
	}
	return p.docs[p.off[id]:p.off[id+1]]
}

// scatter holds one document's weights by term id, so the document's dot
// product with a candidate is one pass over the candidate's terms
// (scatter-gather) instead of a merge of two term lists. The candidate's
// terms come in token order, and a term the document lacks reads 0,
// whose product adds nothing to the sum: every dot product is the one a
// merge computes, the same products summed in the same order, to the
// bit. It is sized for the candidates' form, whose ids it must cover.
type scatter []float64

// load scatters a's document i; terms outside s are in no candidate.
func (s scatter) load(a weighted, i int) {
	lo, hi := a.doc(i)
	for j := lo; j < hi; j++ {
		if id := a.ids[j]; int(id) < len(s) {
			s[id] = a.w[j]
		}
	}
}

// unload undoes load(a, i).
func (s scatter) unload(a weighted, i int) {
	lo, hi := a.doc(i)
	for _, id := range a.ids[lo:hi] {
		if int(id) < len(s) {
			s[id] = 0
		}
	}
}

// dot is the cosine of the loaded document and b's document j.
func (s scatter) dot(b weighted, j int) float64 {
	lo, hi := b.doc(j)
	var dot float64
	for k := lo; k < hi; k++ {
		dot += s[b.ids[k]] * b.w[k]
	}
	return dot
}

// textChunk is how many documents one task of the worker pool scores.
const textChunk = 64

// discoverTextLinks compares the free-text annotation of primary objects
// across the two sources with TF-IDF cosine — raw-count TF, IDF
// log((N+1)/(df+1)) over the N documents of both sources, L2 norm — using
// a shared-term inverted index over to's documents for candidate
// generation instead of the full cross product. Both sources' text forms
// are built, numbered by the engine's dictionary.
func (e *Engine) discoverTextLinks(ctx context.Context, from, to *Source) ([]metadata.Link, int, error) {
	f, t := from.forms.text, to.forms.text
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
		s := make(scatter, len(t.df))
		for d := c * textChunk; d < min((c+1)*textChunk, len(f.acc)); d++ {
			lo, hi := f.doc(d)
			cands = cands[:0]
			for _, id := range f.ids[lo:hi] {
				for _, i := range inv.of(id) {
					if seen[i] != int32(d+1) {
						seen[i] = int32(d + 1)
						cands = append(cands, i)
					}
				}
			}
			if len(cands) == 0 {
				continue
			}
			slices.Sort(cands)
			res := &results[d]
			res.comparisons = len(cands)
			s.load(fw, d)
			for _, i := range cands {
				sim := s.dot(tw, int(i))
				if sim < minTextCosine {
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
			s.unload(fw, d)
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
