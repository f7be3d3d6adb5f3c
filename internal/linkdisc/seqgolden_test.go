package linkdisc

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/metadata"
	"repro/internal/rel"
)

// The sequence-link goldens were written by the aligner that aligned
// every candidate pair twice, once per direction, with a full direction
// matrix each time (commit 82b2e5e). -update rewrites them from the
// engine under test (the other link goldens too); only a deliberate
// change to what a link is may do that.
var update = flag.Bool("update", false, "rewrite the link goldens in testdata from the current engine")

// e7Mutations are the sequence-mutation rates E7 sweeps.
var e7Mutations = []float64{0.01, 0.05, 0.10, 0.20, 0.40}

// e7Sources profiles and analyzes E7's corpus (seed 5, 30 proteins) at
// one mutation rate: swissprot, pdb and genbank, in integration order.
func e7Sources(t *testing.T, mut float64) []*Source {
	corpus := datagen.Generate(datagen.Config{Seed: 5, Proteins: 30, Noise: datagen.Noise{SeqMutation: mut}})
	var out []*Source
	for _, name := range []string{"swissprot", "pdb", "genbank"} {
		out = append(out, makeSource(t, corpus.Source(name)))
	}
	return out
}

// orientPairs align with the same score but a different identity in the
// two orientations (found by random search over the parent aligner): the
// traceback's tie-break prefers diagonal, then up, then left, and up and
// left swap roles when the pair is transposed.
var orientPairs = [][2]string{
	{"TTTTTGGGCGGTGGACGCAAACTTAGCCAATATGCCTGCGGTGTGGGGAAATTCC", "TATATTTTGGCGCGTGGAGGCAAACTTAGCCAATATGCCTGCGTGTGCCGGAAATTCC"},
	{"GCGCCGCACAGAAGTAATTCAAGTGACAAGCCGCCCTCATAAACC", "GCGCCACAGAAAGTAATCAAGTGACAAGCCGCCCTCATAAACC"},
	{"TGATTACCAACTCTTAAGTTGCGACTTGTTAGCATGTACATGTGCTAGACAACT", "GGATTAACATCTTAAGTTGGCGGACCTTGTTTAGCATGGTCATGTGGTAGACAACT"},
	{"CTACATGGTGATCTAATAAATATGACCTGCCTCCCCCGTCAGAAGTACAGGGCCATGTGAAAATTAGCA", "CTAACACGTATATCTAATATTGACCTGCCTCACCCGTCAAAGTACTGCCCTATGGTGAAAATTAGCA"},
	{"GCAACTCTCAGGTCCTCGTTTGAATCTGTACTTTGATACGTC", "GCAACTCAGAGTCCTCGTTTCGAATCTGCACTTTGATACGTGC"},
}

// indelLike pairs 60 short random sequences with copies carrying
// substitutions, deletions and insertions, then adds orientPairs.
func indelLike() (left, right *rel.Database) {
	const bases = "ACGT"
	rng := rand.New(rand.NewSource(1))
	left, right = rel.NewDatabase("left"), rel.NewDatabase("right")
	l := left.Create("entry", rel.TextSchema("entry_id", "accession", "seq"))
	r := right.Create("entry", rel.TextSchema("entry_id", "accession", "seq"))
	for i := 0; i < 60; i++ {
		a := make([]byte, 40+rng.Intn(30))
		for j := range a {
			a[j] = bases[rng.Intn(4)]
		}
		var b []byte
		for _, c := range a {
			switch x := rng.Float64(); {
			case x < 0.06:
				b = append(b, bases[rng.Intn(4)])
			case x < 0.09:
			case x < 0.12:
				b = append(b, c, bases[rng.Intn(4)])
			default:
				b = append(b, c)
			}
		}
		l.AppendRaw(fmt.Sprint(i+1), fmt.Sprintf("LA%04d", i), string(a))
		r.AppendRaw(fmt.Sprint(i+1), fmt.Sprintf("RB%04d", i), string(b))
	}
	for i, p := range orientPairs {
		l.AppendRaw(fmt.Sprint(61+i), fmt.Sprintf("LA%04d", 60+i), p[0])
		r.AppendRaw(fmt.Sprint(61+i), fmt.Sprintf("RB%04d", 60+i), p[1])
	}
	return left, right
}

// rnaLike pairs 40 T-rich random DNA sequences with mutated reverse
// complements in which half or all of the Ts are written as U. Sequences
// are compared on the plus strand, as stored, so none of these pairs may
// link.
func rnaLike() (dna, rna *rel.Database) {
	const bases = "ACGTTT"
	rng := rand.New(rand.NewSource(2))
	dna, rna = rel.NewDatabase("dna"), rel.NewDatabase("rna")
	d := dna.Create("entry", rel.TextSchema("entry_id", "accession", "seq"))
	r := rna.Create("entry", rel.TextSchema("entry_id", "accession", "seq"))
	for i := 0; i < 40; i++ {
		a := make([]byte, 80+rng.Intn(40))
		for j := range a {
			a[j] = bases[rng.Intn(4)]
		}
		b := reverseComplement(a)
		for j := range b {
			switch x := rng.Float64(); {
			case x < 0.04:
				b[j] = bases[rng.Intn(4)]
			case b[j] == 'T' && (i%2 == 1 || x < 0.5):
				b[j] = 'U'
			}
		}
		d.AppendRaw(fmt.Sprint(i+1), fmt.Sprintf("DN%04d", i), string(a))
		r.AppendRaw(fmt.Sprint(i+1), fmt.Sprintf("RN%04d", i), string(b))
	}
	return dna, rna
}

// seqLines renders the sequence links of one discovery call in emitted
// order: direction (1 = from the new source), both ends, confidence, and
// the method string carrying score and identity.
func seqLines(call string, nu *Source, links []metadata.Link) []string {
	var out []string
	for _, l := range links {
		if l.Type != metadata.LinkSequence {
			continue
		}
		dir := 2
		if strings.EqualFold(l.From.Source, nu.Name()) {
			dir = 1
		}
		out = append(out, fmt.Sprintf("%s %d %s/%s/%s %s/%s/%s %.12f %s", call, dir,
			l.From.Source, l.From.Relation, l.From.Accession,
			l.To.Source, l.To.Relation, l.To.Accession, l.Confidence, l.Method))
	}
	return out
}

// seqGoldenAgainst integrates srcs one after another through
// DiscoverAgainst, then runs DiscoverAll over them, and records every
// call's sequence links and its SequenceComparisons.
func seqGoldenAgainst(t *testing.T, opts Options, srcs []*Source) []string {
	e := New(opts)
	var out []string
	for _, s := range srcs {
		links, _, st, err := e.DiscoverAgainst(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, seqLines("against:"+s.Name(), s, links)...)
		out = append(out, fmt.Sprintf("against:%s hits=%d", s.Name(), st.SequenceComparisons))
		if err := e.AddSource(s); err != nil {
			t.Fatal(err)
		}
	}
	links, _, st := e.DiscoverAll()
	out = append(out, seqLines("all", srcs[0], links)...)
	return append(out, fmt.Sprintf("all hits=%d", st.SequenceComparisons))
}

// seqGoldenAppended registers queries, then streams target in three
// batches (streamGolden).
func seqGoldenAppended(t *testing.T, opts Options, queries, target *Source) []string {
	e := New(opts)
	if err := e.AddSource(queries); err != nil {
		t.Fatal(err)
	}
	return streamGolden(t, e, target, 3, func(call string, batch *Source, links []metadata.Link, st Stats) []string {
		return append(seqLines(call, batch, links), fmt.Sprintf("%s hits=%d", call, st.SequenceComparisons))
	})
}

// streamGolden streams target in n batches against the sources e holds:
// the first through DiscoverAgainst, then registered, the rest through
// DiscoverAppended under its structure and profiles. render turns each
// call, named batch<k>:<target>, into golden lines.
func streamGolden(t *testing.T, e *Engine, target *Source, n int,
	render func(call string, batch *Source, links []metadata.Link, st Stats) []string) []string {

	var out []string
	for k := 0; k < n; k++ {
		batch := batchOf(target, k, n)
		discover := e.DiscoverAppended
		if k == 0 {
			discover = e.DiscoverAgainst
		}
		links, _, st, err := discover(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, render(fmt.Sprintf("batch%d:%s", k+1, target.Name()), batch, links, st)...)
		if k == 0 {
			if err := e.AddSource(batch); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// reverseComplement reverses an ACGT strand and complements its bases.
func reverseComplement(s []byte) []byte {
	out := make([]byte, len(s))
	for i, c := range s {
		out[len(s)-1-i] = "TGCA"[strings.IndexByte("ACGT", c)]
	}
	return out
}

// TestSeqLinkGolden replays every golden at workers 1, 2 and 4: E7's
// corpora at the five mutation rates, the gapped pairs whose traceback
// depends on orientation, the RNA pairs that must not link, and the
// integrate-linked
// corpus whole and with the target streamed in three batches. Each
// golden holds every sequence link in emitted order and each call's
// SequenceComparisons.
func TestSeqLinkGolden(t *testing.T) {
	embl, genbank := datagen.LinkedSequences(7)
	emblSrc, gbSrc := makeSource(t, embl), makeSource(t, genbank)
	type golden struct {
		file string
		run  func(workers int) []string
	}
	var goldens []golden
	for _, mut := range e7Mutations {
		srcs := e7Sources(t, mut)
		goldens = append(goldens, golden{fmt.Sprintf("seqlinks_e7_mut%.2f.txt", mut), func(w int) []string {
			return seqGoldenAgainst(t, Options{Workers: w}, srcs)
		}})
	}
	left, right := indelLike()
	indels := []*Source{makeSource(t, left), makeSource(t, right)}
	goldens = append(goldens, golden{"seqlinks_indels.txt", func(w int) []string {
		return seqGoldenAgainst(t, Options{Workers: w}, indels)
	}})
	dna, rna := rnaLike()
	rnas := []*Source{makeSource(t, dna), makeSource(t, rna)}
	goldens = append(goldens, golden{"seqlinks_rna.txt", func(w int) []string {
		return seqGoldenAgainst(t, Options{Workers: w}, rnas)
	}})
	goldens = append(goldens, golden{"seqlinks_genbank1200.txt", func(w int) []string {
		o := Options{Workers: w}
		out := seqGoldenAgainst(t, o, []*Source{emblSrc, gbSrc})
		return append(out, seqGoldenAppended(t, o, gbSrc, emblSrc)...)
	}})
	for _, g := range goldens {
		path := filepath.Join("testdata", g.file)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
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
				if got[i] != want[i] {
					t.Errorf("%s workers=%d line %d:\n got  %s\n want %s", g.file, w, i+1, got[i], want[i])
					break
				}
			}
		}
	}
}
