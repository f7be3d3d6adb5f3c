package linkdisc

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
)

// formOf prepares texts as the documents d0, d1, ... of one source.
func formOf(texts ...string) *TextForm {
	docs := make([]textDoc, len(texts))
	for i, s := range texts {
		docs[i] = textDoc{accession: fmt.Sprintf("d%d", i), text: s}
	}
	return newTextForm(docs)
}

// weightOf is term's weight in document i of w, 0 if absent.
func weightOf(w weighted, i int, term string) float64 {
	lo, hi := w.doc(i)
	for j := lo; j < hi; j++ {
		if w.terms[j] == term {
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
	simClose, simFar := fw.cosine(0, tw, 0), fw.cosine(0, tw, 1)
	if simClose <= simFar {
		t.Errorf("related docs %v should exceed unrelated %v", simClose, simFar)
	}
	if self := fw.cosine(0, fw, 0); math.Abs(self-1.0) > 1e-9 {
		t.Errorf("self-cosine = %v", self)
	}
}

func TestTextCosineEmpty(t *testing.T) {
	fw, tw := weigh(formOf(""), formOf("anything here", "x y"))
	if got := fw.cosine(0, tw, 0); got != 0 {
		t.Errorf("empty cosine = %v", got)
	}
}

// Property: the cosine of any document pair is within [0, 1+eps] and
// the same, to the bit, in both directions.
func TestTextCosineRange(t *testing.T) {
	f := func(a, b string) bool {
		fw, tw := weigh(formOf(a), formOf(b, "alpha beta gamma delta"))
		got := fw.cosine(0, tw, 0)
		return got >= 0 && got <= 1+1e-9 && got == tw.cosine(0, fw, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// A source's form grown batch by batch is the form of the whole source,
// and a missing form stays missing.
func TestTextFormAppendedBatchesMatchWhole(t *testing.T) {
	corpus := datagen.Generate(datagen.Config{Seed: 1, Proteins: 60})
	for _, s := range []*Source{fastaDupSource(t, "reads", 600, 7), makeSource(t, corpus.Source("pir"))} {
		const batches = 6
		var grown *TextForm
		for k := 0; k < batches; k++ {
			b := newTextForm(textDocs(batchOf(s, k, batches)))
			if k == 0 {
				grown = b
			} else {
				grown = grown.Append(b)
			}
		}
		if want := newTextForm(textDocs(s)); !reflect.DeepEqual(grown, want) {
			t.Errorf("%s: form grown in %d batches differs from the whole source's", s.Name(), batches)
		}
		if grown.Append(nil) != nil || (*TextForm)(nil).Append(grown) != nil {
			t.Errorf("%s: appending to or from a missing form gave a form", s.Name())
		}
	}
}

func ExampleTextForm() {
	from := formOf("hemoglobin transports oxygen in blood")
	to := formOf("myoglobin stores oxygen in muscle", "ribosome synthesizes protein chains")
	fw, tw := weigh(from, to)
	fmt.Printf("sim(0,1)=%.2f sim(0,2)=%.2f\n", fw.cosine(0, tw, 0), fw.cosine(0, tw, 1))
	// Output:
	// sim(0,1)=0.05 sim(0,2)=0.00
}
