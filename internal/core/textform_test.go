package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/metadata"
)

// textLinksOf returns the stored TF-IDF text links with one end in
// source, sorted.
func textLinksOf(sys *System, source string) []metadata.Link {
	var out []metadata.Link
	for _, l := range sys.Repo.AllLinks() {
		if strings.HasPrefix(l.Method, "text:") && (l.From.Source == source || l.To.Source == source) {
			out = append(out, l)
		}
	}
	metadata.SortLinks(out)
	return out
}

// sameLinks fails t unless got and want hold the same links, confidences
// to the bit.
func sameLinks(t *testing.T, got, want []metadata.Link) {
	t.Helper()
	if len(want) == 0 {
		t.Fatal("no text links to compare")
	}
	if len(got) != len(want) {
		t.Fatalf("%d text links, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("text link %d:\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}
}

// TestAppendGrowsTextForm: publish grows a streamed source's text form by
// each batch's, so a source integrated after the stream finds the text
// links it would find against the source integrated whole.
func TestAppendGrowsTextForm(t *testing.T) {
	corpus := datagen.Generate(datagen.Config{Seed: 11, Proteins: 40})
	sp := corpus.Source("swissprot")
	build := func(streamed bool) *System {
		sys := New(defaultOpts())
		if _, err := sys.AddSource(corpus.Source("pdb")); err != nil {
			t.Fatal(err)
		}
		if streamed {
			half := splitDatabase(t, sp, "spcopy")
			if _, err := sys.AddSource(half[0]); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.AppendToSource(context.Background(), "spcopy", half[1]); err != nil {
				t.Fatal(err)
			}
			if sys.engine.Source("spcopy").Text == nil {
				t.Fatal("streamed source has no text form after its batches were published")
			}
		} else {
			whole := sp.ShallowClone()
			whole.Name = "spcopy"
			if _, err := sys.AddSource(whole); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sys.AddSource(corpus.Source("pir")); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	sameLinks(t, textLinksOf(build(true), "pir"), textLinksOf(build(false), "pir"))
}

// TestDMLDropsTextForm: a statement on a source whose text form was built
// makes later sources find the text links of the changed data — the
// links they find when the statement ran before any form was built.
func TestDMLDropsTextForm(t *testing.T) {
	corpus := datagen.Generate(datagen.Config{Seed: 11, Proteins: 40})
	build := func(formFirst bool) *System {
		sys := New(defaultOpts())
		del := func() {
			if _, err := sys.Exec("DELETE FROM swissprot_protein WHERE accession = 'P10003'"); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sys.AddSource(corpus.Source("swissprot").ShallowClone()); err != nil {
			t.Fatal(err)
		}
		if !formFirst {
			del()
		}
		// Linking pdb against swissprot builds swissprot's text form.
		if _, err := sys.AddSource(corpus.Source("pdb")); err != nil {
			t.Fatal(err)
		}
		if formFirst {
			del()
		}
		if _, err := sys.AddSource(corpus.Source("pir")); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	sameLinks(t, textLinksOf(build(true), "pir"), textLinksOf(build(false), "pir"))
}
