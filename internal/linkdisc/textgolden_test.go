package linkdisc

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/flatfile"
	"repro/internal/metadata"
	"repro/internal/rel"
)

// The text-link goldens were written by the engine that tokenized both
// sources on every call and scored TF-IDF vectors held in maps (commit
// 81953fc); -update rewrites them from the engine under test.

// textLines renders the TF-IDF text links of one discovery call
// (linkLines). Entity links share the type and are left out.
func textLines(call string, nu *Source, links []metadata.Link) []string {
	return linkLines(call, nu, links, func(l metadata.Link) bool {
		return l.Type == metadata.LinkText && strings.HasPrefix(l.Method, "text:")
	})
}

// textOptions leaves the text channel and the cheap xref channel on.
func textOptions(workers int) Options {
	return Options{DisableSequenceLinks: true, DisableEntityLinks: true, Workers: workers}
}

// textGoldenAll registers every source of a generated corpus and runs
// DiscoverAll once.
func textGoldenAll(t *testing.T, workers int, corpus *datagen.Corpus) []string {
	e := New(textOptions(workers))
	for _, db := range corpus.Sources {
		if err := e.AddSource(makeSource(t, db)); err != nil {
			t.Fatal(err)
		}
	}
	links, _, st := e.DiscoverAll()
	return append(textLines("all", nil, links), fmt.Sprintf("all text=%d", st.TextComparisons))
}

// fastaDupSource parses n FastaDupText records (a planted duplicate every
// 50th) under name and analyzes them whole.
func fastaDupSource(t *testing.T, name string, n int, seed int64) *Source {
	var text strings.Builder
	if err := datagen.FastaDupText(&text, n, 50, seed); err != nil {
		t.Fatal(err)
	}
	db, err := flatfile.Parse("fasta", strings.NewReader(text.String()), name)
	if err != nil {
		t.Fatal(err)
	}
	return makeSource(t, db)
}

// batchOf is the k-th of n equal slices of every relation of s, under
// s's name, structure and profiles — an appended batch as core builds it.
// The slices are capped, so a relation grown from one never writes into
// s's tuples.
func batchOf(s *Source, k, n int) *Source {
	db := rel.NewDatabase(s.Name())
	for _, r := range s.DB.Relations() {
		part := db.Create(r.Name, r.Schema)
		m := len(r.Tuples)
		part.Tuples = r.Tuples[k*m/n : (k+1)*m/n : (k+1)*m/n]
	}
	return &Source{DB: db, Structure: s.Structure, Profiles: s.Profiles}
}

// textGoldenStream registers targets, then streams reads in six batches
// (streamGolden).
func textGoldenStream(t *testing.T, workers int, targets []*Source, reads *Source) []string {
	e := New(textOptions(workers))
	for _, s := range targets {
		if err := e.AddSource(s); err != nil {
			t.Fatal(err)
		}
	}
	return streamGolden(t, e, reads, 6, func(call string, batch *Source, links []metadata.Link, st Stats) []string {
		return append(textLines(call, batch, links), fmt.Sprintf("%s text=%d", call, st.TextComparisons))
	})
}

// sameTextLine compares a rendered link line with its golden: every field
// exactly, but the confidence within 1e-12 (plus a last-digit rounding
// slack), since the golden's sums ran in map order.
func sameTextLine(got, want string) bool {
	if got == want {
		return true
	}
	g, w := strings.Fields(got), strings.Fields(want)
	if len(g) != 6 || len(w) != 6 {
		return false
	}
	for i := range g {
		if i != 4 && g[i] != w[i] {
			return false
		}
	}
	gc, err1 := strconv.ParseFloat(g[4], 64)
	wc, err2 := strconv.ParseFloat(w[4], 64)
	return err1 == nil && err2 == nil && math.Abs(gc-wc) <= 1.5e-12
}

// TestTextLinkGolden replays every golden at workers 1, 2 and 4: datagen
// seeds 1 and 6 at 40 and 200 proteins, all sources through DiscoverAll,
// and 1,200 FASTA reads streamed in six batches of 200 against the
// seed-1, 200-protein swissprot and pir — the shape of a streamed upload
// beside registered sources, both directions per batch — and against 600
// FASTA records of another seed, the one target sharing the reads' terms
// (their clone and lot ids are numbered alike). Each golden holds
// every TF-IDF text link in emitted order and each call's
// TextComparisons.
func TestTextLinkGolden(t *testing.T) {
	type golden struct {
		file string
		run  func(workers int) []string
	}
	var goldens []golden
	for _, seed := range []int64{1, 6} {
		for _, proteins := range []int{40, 200} {
			corpus := datagen.Generate(datagen.Config{Seed: seed, Proteins: proteins})
			goldens = append(goldens, golden{fmt.Sprintf("textlinks_seed%d_p%d.txt", seed, proteins),
				func(w int) []string { return textGoldenAll(t, w, corpus) }})
		}
	}
	corpus := datagen.Generate(datagen.Config{Seed: 1, Proteins: 200})
	targets := []*Source{makeSource(t, corpus.Source("swissprot")), makeSource(t, corpus.Source("pir")),
		fastaDupSource(t, "reference", 600, 8)}
	reads := fastaDupSource(t, "reads", 1200, 7)
	goldens = append(goldens, golden{"textlinks_fasta1200.txt", func(w int) []string {
		return textGoldenStream(t, w, targets, reads)
	}})
	for _, g := range goldens {
		path := filepath.Join("testdata", g.file)
		if *update {
			if err := os.WriteFile(path, []byte(strings.Join(g.run(1), "\n")+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
		for _, w := range []int{1, 2, 4} {
			got := g.run(w)
			if len(got) != len(want) {
				t.Errorf("%s workers=%d: %d lines, golden has %d", g.file, w, len(got), len(want))
			}
			for i := 0; i < len(got) && i < len(want); i++ {
				if !sameTextLine(got[i], want[i]) {
					t.Errorf("%s workers=%d line %d:\n got  %s\n want %s", g.file, w, i+1, got[i], want[i])
					break
				}
			}
		}
	}
}

// TestTextLinksDeterministic scores E8's description pair, swissprot and
// pir at seed 6 and 40 proteins, 50 times, each from fresh sources in a
// fresh engine: every text link must come out with one bit pattern.
// Summing a vector's norm or a dot product in map order gave a link's
// confidence different last bits from run to run, and a link on
// minTextCosine could flip.
func TestTextLinksDeterministic(t *testing.T) {
	corpus := datagen.Generate(datagen.Config{Seed: 6, Proteins: 40})
	bits := make(map[string]uint64)
	for run := 0; run < 50; run++ {
		e := New(textOptions(1))
		for _, name := range []string{"swissprot", "pir"} {
			if err := e.AddSource(makeSource(t, corpus.Source(name))); err != nil {
				t.Fatal(err)
			}
		}
		links, _, _ := e.DiscoverAll()
		n := 0
		for _, l := range links {
			if !strings.HasPrefix(l.Method, "text:") {
				continue
			}
			n++
			k := l.From.Key() + " " + l.To.Key()
			b, seen := bits[k]
			if run == 0 {
				bits[k] = math.Float64bits(l.Confidence)
				continue
			}
			if !seen || b != math.Float64bits(l.Confidence) {
				t.Fatalf("run %d: %s confidence %v (bits %#x), first run %#x", run, k, l.Confidence, math.Float64bits(l.Confidence), b)
			}
		}
		if n != len(bits) || n == 0 {
			t.Fatalf("run %d: %d text links, first run %d", run, n, len(bits))
		}
	}
}
