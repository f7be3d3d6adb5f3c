package linkdisc

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
	"repro/internal/textmine"
)

// docsOf makes texts the documents d0, d1, ... of one source.
func docsOf(texts ...string) []textDoc {
	docs := make([]textDoc, len(texts))
	for i, s := range texts {
		docs[i] = textDoc{accession: fmt.Sprintf("d%d", i), text: s}
	}
	return docs
}

// testTerms numbers the terms of the forms these tests build.
var testTerms = newTermDict()

// formOf prepares texts as the documents d0, d1, ... of one source.
func formOf(texts ...string) *TextForm { return testTerms.form(docsOf(texts...)) }

// cosineOf is the cosine of a's document i and b's document j, scored
// as discoverTextLinks scores a candidate.
func cosineOf(a weighted, i int, b weighted, j int) float64 {
	s := make(scatter, len(b.df))
	s.load(a, i)
	return s.dot(b, j)
}

// weightOf is term's weight in document i of w, 0 if absent.
func weightOf(w weighted, i int, term string) float64 {
	id, ok := testTerms.ids[term]
	lo, hi := w.doc(i)
	for j := lo; j < hi; j++ {
		if ok && w.ids[j] == id {
			return w.w[j]
		}
	}
	return 0
}

func TestTextFormIDFWeighting(t *testing.T) {
	fw, _ := weigh(formOf("protein binds oxygen"), formOf("protein folds quickly", "protein degrades slowly"))
	// "protein" is in every document of the corpus: low IDF; "oxygen" in
	// one: high IDF.
	if p, o := weightOf(fw, 0, "protein"), weightOf(fw, 0, "oxygen"); p >= o {
		t.Errorf("weight(protein)=%v should be < weight(oxygen)=%v", p, o)
	}
}

func TestTextCosineSimilarity(t *testing.T) {
	fw, tw := weigh(formOf("hemoglobin oxygen transport blood"), formOf(
		"hemoglobin oxygen binding protein in red blood cells",
		"ribosomal translation machinery"))
	simClose, simFar := cosineOf(fw, 0, tw, 0), cosineOf(fw, 0, tw, 1)
	if simClose <= simFar {
		t.Errorf("related docs %v should exceed unrelated %v", simClose, simFar)
	}
	if self := cosineOf(fw, 0, fw, 0); math.Abs(self-1.0) > 1e-9 {
		t.Errorf("self-cosine = %v", self)
	}
}

func TestTextCosineEmpty(t *testing.T) {
	fw, tw := weigh(formOf(""), formOf("anything here", "x y"))
	if got := cosineOf(fw, 0, tw, 0); got != 0 {
		t.Errorf("empty cosine = %v", got)
	}
}

// Property: the cosine of any document pair is within [0, 1+eps] and
// the same, to the bit, in both directions.
func TestTextCosineRange(t *testing.T) {
	f := func(a, b string) bool {
		fw, tw := weigh(formOf(a), formOf(b, "alpha beta gamma delta"))
		got := cosineOf(fw, 0, tw, 0)
		return got >= 0 && got <= 1+1e-9 && got == cosineOf(tw, 0, fw, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// A source's form grown batch by batch is the form of the whole source,
// and a missing form stays missing, as does one grown by a form whose
// terms another dictionary numbered.
func TestTextFormAppendedBatchesMatchWhole(t *testing.T) {
	corpus := datagen.Generate(datagen.Config{Seed: 1, Proteins: 60})
	for _, s := range []*Source{fastaDupSource(t, "reads", 600, 7), makeSource(t, corpus.Source("pir"))} {
		const batches = 6
		var grown *TextForm
		for k := 0; k < batches; k++ {
			b := testTerms.form(textDocs(batchOf(s, k, batches)))
			if k == 0 {
				grown = b
			} else {
				grown = grown.Append(b)
			}
		}
		if want := testTerms.form(textDocs(s)); !reflect.DeepEqual(grown, want) {
			t.Errorf("%s: form grown in %d batches differs from the whole source's", s.Name(), batches)
		}
		if grown.Append(nil) != nil || (*TextForm)(nil).Append(grown) != nil {
			t.Errorf("%s: appending to or from a missing form gave a form", s.Name())
		}
		if grown.Append(newTermDict().form(textDocs(batchOf(s, 0, batches)))) != nil {
			t.Errorf("%s: appending a form of another dictionary gave a form", s.Name())
		}
	}
}

// mergeForm is a text form as the merge scorer held it: each document's
// distinct tokens as sorted strings with their counts, and document
// frequencies by token. With mergeWeights and mergeCosine it is the
// oracle every text-link confidence must equal to the bit.
type mergeForm struct {
	start []int32
	terms []string
	tf    []int32
	df    map[string]int32
}

func mergeFormOf(docs []textDoc) *mergeForm {
	f := &mergeForm{start: []int32{0}, df: make(map[string]int32)}
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
		f.start = append(f.start, int32(len(f.terms)))
	}
	return f
}

// mergeWeights weighs f's documents in the corpus of f and other, whose
// documents number n: TF-IDF, L2-normalized, norms summed in token order.
func mergeWeights(f, other *mergeForm, n int) []float64 {
	w := make([]float64, len(f.terms))
	for i := 0; i+1 < len(f.start); i++ {
		lo, hi := f.start[i], f.start[i+1]
		var norm float64
		for j := lo; j < hi; j++ {
			k := f.df[f.terms[j]] + other.df[f.terms[j]]
			w[j] = float64(f.tf[j]) * math.Log(float64(n+1)/float64(k+1))
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

// mergeCosine is the dot product of a's document i and b's document j,
// summed in token order by one merge of their sorted tokens.
func mergeCosine(a *mergeForm, aw []float64, i int, b *mergeForm, bw []float64, j int) float64 {
	alo, ahi, blo, bhi := a.start[i], a.start[i+1], b.start[j], b.start[j+1]
	var dot float64
	for alo < ahi && blo < bhi {
		switch c := strings.Compare(a.terms[alo], b.terms[blo]); {
		case c < 0:
			alo++
		case c > 0:
			blo++
		default:
			dot += aw[alo] * bw[blo]
			alo++
			blo++
		}
	}
	return dot
}

// randomDocs draws n documents of up to 14 words from a small vocabulary,
// words repeated, some documents empty or all stopwords.
func randomDocs(rng *rand.Rand, n int) []textDoc {
	vocab := []string{"kinase", "alpha", "beta", "zinc", "finger", "binding", "protein", "domain", "the", "of",
		"oxygen", "transport", "membrane", "receptor", "c0000017x", "u0000042x", "ATP", "Hemoglobin", "x"}
	var texts []string
	for i := 0; i < n; i++ {
		var words []string
		for w := rng.Intn(15); w > 0; w-- {
			if rng.Intn(5) == 0 {
				words = append(words, fmt.Sprintf("w%d", rng.Intn(40)))
			} else {
				words = append(words, vocab[rng.Intn(len(vocab))])
			}
		}
		texts = append(texts, strings.Join(words, " "))
	}
	return docsOf(texts...)
}

// formIn3 builds docs' form as three batches appended in order.
func formIn3(terms *termDict, docs []textDoc) *TextForm {
	f := terms.form(docs[:len(docs)/3])
	f = f.Append(terms.form(docs[len(docs)/3 : 2*len(docs)/3]))
	return f.Append(terms.form(docs[2*len(docs)/3:]))
}

// Every cosine between the documents of two random forms equals the
// merge scorer's to the bit, with both forms built whole or each in
// three appended batches, the other form first: in a fresh dictionary
// each, so the terms draw other ids.
func TestTextCosineMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for round := 0; round < 20; round++ {
		fd, td := randomDocs(rng, 1+rng.Intn(40)), randomDocs(rng, 1+rng.Intn(40))
		mf, mt := mergeFormOf(fd), mergeFormOf(td)
		n := len(fd) + len(td)
		mfw, mtw := mergeWeights(mf, mt, n), mergeWeights(mt, mf, n)
		for _, build := range []struct {
			name  string
			forms func() (*TextForm, *TextForm)
		}{
			{"whole", func() (*TextForm, *TextForm) {
				terms := newTermDict()
				return terms.form(fd), terms.form(td)
			}},
			{"3 batches", func() (*TextForm, *TextForm) {
				terms := newTermDict()
				tf := formIn3(terms, td)
				return formIn3(terms, fd), tf
			}},
		} {
			fw, tw := weigh(build.forms())
			for i := range fd {
				for j := range td {
					want := mergeCosine(mf, mfw, i, mt, mtw, j)
					if got := cosineOf(fw, i, tw, j); got != want {
						t.Fatalf("round %d, %s: cosine(%d, %d) = %v, the merge scorer gives %v\n%q\n%q",
							round, build.name, i, j, got, want, fd[i].text, td[j].text)
					}
					if got := cosineOf(tw, j, fw, i); got != want {
						t.Fatalf("round %d, %s: reversed cosine(%d, %d) = %v, the merge scorer gives %v", round, build.name, j, i, got, want)
					}
				}
			}
		}
	}
}

func ExampleTextForm() {
	from := formOf("hemoglobin transports oxygen in blood")
	to := formOf("myoglobin stores oxygen in muscle", "ribosome synthesizes protein chains")
	fw, tw := weigh(from, to)
	fmt.Printf("sim(0,1)=%.2f sim(0,2)=%.2f\n", cosineOf(fw, 0, tw, 0), cosineOf(fw, 0, tw, 1))
	// Output:
	// sim(0,1)=0.05 sim(0,2)=0.00
}
