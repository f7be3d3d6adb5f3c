package linkdisc

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/flatfile"
	"repro/internal/metadata"
	"repro/internal/rel"
)

// The entity-link and xref goldens were written by the engine that
// rebuilt the entity dictionary, ran the recognizer over every document
// and scanned every candidate attribute's distinct values on each call
// (commit 17f6269); -update rewrites them from the engine under test.

// linkLines renders the links of one discovery call that keep selects,
// in emitted order: direction (1 = from nu, 2 = towards it, 0 = no new
// source), both ends, confidence and method.
func linkLines(call string, nu *Source, links []metadata.Link, keep func(metadata.Link) bool) []string {
	var out []string
	for _, l := range links {
		if !keep(l) {
			continue
		}
		dir := 0
		if nu != nil {
			dir = 2
			if strings.EqualFold(l.From.Source, nu.Name()) {
				dir = 1
			}
		}
		out = append(out, fmt.Sprintf("%s %d %s/%s/%s %s/%s/%s %.12f %s", call, dir,
			l.From.Source, l.From.Relation, l.From.Accession,
			l.To.Source, l.To.Relation, l.To.Accession, l.Confidence, l.Method))
	}
	return out
}

func isEntity(l metadata.Link) bool { return strings.HasPrefix(l.Method, "entity:") }
func isXRef(l metadata.Link) bool   { return l.Type == metadata.LinkXRef }

// entityLines renders a call's entity links and their count.
func entityLines(call string, nu *Source, links []metadata.Link, _ []XRefAttribute) []string {
	out := linkLines(call, nu, links, isEntity)
	return append(out, fmt.Sprintf("%s entity=%d", call, len(out)))
}

// xrefLines renders a call's xref attributes, then its xref links and
// their count.
func xrefLines(call string, nu *Source, links []metadata.Link, xattrs []XRefAttribute) []string {
	var out []string
	for _, x := range xattrs {
		out = append(out, fmt.Sprintf("%s xattr %s.%s.%s -> %s %.12f composite=%v", call,
			x.FromSource, x.FromRelation, x.FromColumn, x.ToSource, x.MatchFrac, x.Composite))
	}
	ls := linkLines(call, nu, links, isXRef)
	return append(append(out, ls...), fmt.Sprintf("%s xref=%d", call, len(ls)))
}

// grow publishes batch into the registered source of its name as core's
// publish does: the registered relations grow by append branches, then
// the registered source's derived state by the batch's.
func grow(e *Engine, batch *Source) {
	reg := e.Source(batch.Name())
	for _, br := range batch.DB.Relations() {
		if len(br.Tuples) == 0 {
			continue
		}
		g := reg.DB.Relation(br.Name).AppendBranch()
		for _, tu := range br.Tuples {
			g.Append(tu)
		}
		reg.DB.Put(g)
	}
	reg.Grow(batch)
}

// streamGrown streams every source of srcs in n batches, interleaved —
// batch k of each source in turn — against the sources e holds: a
// source's first batch through DiscoverAgainst, then registered, the
// later ones through DiscoverAppended, then grown into the registered
// source. render turns each call, named batch<k>:<source>, into lines.
func streamGrown(t *testing.T, e *Engine, srcs []*Source, n int,
	render func(call string, batch *Source, links []metadata.Link, xattrs []XRefAttribute) []string) []string {

	var out []string
	for k := 0; k < n; k++ {
		for _, s := range srcs {
			batch := batchOf(s, k, n)
			discover := e.DiscoverAppended
			if k == 0 {
				discover = e.DiscoverAgainst
			}
			links, xattrs, _, err := discover(context.Background(), batch)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, render(fmt.Sprintf("batch%d:%s", k+1, s.Name()), batch, links, xattrs)...)
			if k == 0 {
				if err := e.AddSource(batch); err != nil {
					t.Fatal(err)
				}
			} else {
				grow(e, batch)
			}
		}
	}
	return out
}

// entityOptions leaves the entity channel and the cheap xref channel on.
func entityOptions(workers int) Options {
	return Options{DisableSequenceLinks: true, DisableTextLinks: true, Workers: workers}
}

// xrefOptions leaves the xref channel alone on.
func xrefOptions(workers int) Options {
	return Options{DisableSequenceLinks: true, DisableTextLinks: true, DisableEntityLinks: true, Workers: workers}
}

// adversarialEntities is a pair of sources whose names and notes mention
// each other: mixed case; names wrapped in the recognizer's trim set and
// in other punctuation; two- and three-word names; leading, trailing and
// double spaces; numeric and 2-byte names; the Kelvin sign and an ASCII
// K lower-casing alike; one lower-cased name in two unique columns and
// in two batches with different accessions; notes mentioning their own
// accession, and names of the other source's later batches.
var adversarialEntities = []struct {
	name, prefix string
	rows         [][4]string // acc suffix, name, alias, note
}{
	{"alpha", "AL", [][4]string{
		{"0000", "Alpha Kinase", "AK", "Alpha kinase acts on (Beta Receptor) and BE0001 in cells"},
		{"0001", "Shared Name", "12345", `this note mentions "beta receptor", and BETA receptor again`},
		{"0002", "big red protein", "3.5", "nothing to see here at all really"},
		{"0003", "Gamma Chain", " lead space", "mentions AL0003 itself and [Delta Factor]; too"},
		{"0004", "trail space ", "double  space", "mentions {omega}: and ÉCLAIR factor plus p53"},
		{"0005", "p53", "Éclair Factor", "delta  factor spaced and 'Omega'. quoted"},
		{"0006", "\u212Aelvin Unit", "SHARED name", "refers to Late Beta and late beta twice"},
		{"0007", "epsilon", "eps1", "the doc of epsilon mentions Lambda Site here"},
		{"0008", "Late Alpha", "la8", "mentions Epsilon Two and EPSILON two"},
		{"0009", "kelvin unit", "la9", "see Shared Name and big red protein"},
		{"0010", "shared NAME", "la10", "mentions Late Beta (late) and BE0009"},
		{"0011", "Zeta Two", "la11", "three words Zeta Two Three maybe"},
	}},
	{"beta", "BE", [][4]string{
		{"0000", "Beta Receptor", "BR", "binds Alpha Kinase (alpha kinase) strongly"},
		{"0001", "Delta Factor", "Omega", `mentions "Shared Name", with quotes`},
		{"0002", "Lambda Site", "bx2", "cites big red protein and lead space"},
		{"AL0003", "Epsilon Two", "bx3", "mentions AL0003 and Gamma Chain here"},
		{"0004", "beta receptor", "bx4", "trail space and double  space and 3.5 and 12345"},
		{"0005", "omega prime", "bx5", "mentions Éclair Factor and éclair factor and p53"},
		{"0006", "Late Beta", "bx6", "KELVIN UNIT appears; also Kelvin Unit"},
		{"0007", "BE0007x", "bx7", "mentions Late Alpha and shared name"},
		{"0008", "Theta", "bx8", "see Zeta Two and Late Alpha."},
		{"0009", "Iota Band", "OMEGA", "nothing here but words and more words"},
		{"0010", "Kappa", "bx10", "mentions Theta and (Iota Band)"},
		{"0011", "Mu Nine", "bx11", "MU NINE is this doc's own name"},
	}},
}

// adversarialSources builds adversarialEntities: relation entry
// (entry_id, acc, name, alias, note); an accession suffix of six
// characters is the whole accession.
func adversarialSources(t *testing.T) []*Source {
	var out []*Source
	for _, src := range adversarialEntities {
		db := rel.NewDatabase(src.name)
		entry := db.Create("entry", rel.TextSchema("entry_id", "acc", "name", "alias", "note"))
		for i, r := range src.rows {
			acc := src.prefix + r[0]
			if len(r[0]) == 6 {
				acc = r[0]
			}
			entry.AppendRaw(fmt.Sprint(i+1), acc, r[1], r[2], r[3])
		}
		s := makeSource(t, db)
		if s.Structure.Primary != "entry" || s.Structure.PrimaryAccession != "acc" {
			t.Fatalf("%s: primary %s.%s, want entry.acc", src.name, s.Structure.Primary, s.Structure.PrimaryAccession)
		}
		out = append(out, s)
	}
	return out
}

// flatSources parses EMBL 1,200 entries (DR lines to 50 GO terms), 24
// GenBank records cross-referencing them and the 50-term ontology.
func flatSources(t *testing.T) []*Source {
	var embl, gb, obo strings.Builder
	if err := datagen.EMBLText(&embl, 1200, 50, 7); err != nil {
		t.Fatal(err)
	}
	if err := datagen.GenBankText(&gb, 24, 1200, 7); err != nil {
		t.Fatal(err)
	}
	if err := datagen.OBOText(&obo, 50, 7); err != nil {
		t.Fatal(err)
	}
	var out []*Source
	for _, f := range []struct{ format, name, text string }{
		{"embl", "swissprot", embl.String()}, {"genbank", "genbank", gb.String()}, {"obo", "go", obo.String()},
	} {
		db, err := flatfile.Parse(f.format, strings.NewReader(f.text), f.name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, makeSource(t, db))
	}
	return out
}

// compositeSources is a target of 40 accessions and a source of 30
// entries citing them twice each — as "UniProt:P…", "x|P…" or plainly,
// a few citing nothing the target holds.
func compositeSources(t *testing.T) []*Source {
	prot := rel.NewDatabase("prot")
	entry := prot.Create("protein", rel.TextSchema("protein_id", "accession", "label"))
	for i := 0; i < 40; i++ {
		entry.AppendRaw(fmt.Sprint(i+1), fmt.Sprintf("P%06d", 100000+i), fmt.Sprintf("protein number %d", i))
	}
	cites := rel.NewDatabase("cites")
	paper := cites.Create("paper", rel.TextSchema("paper_id", "pmid", "title"))
	ref := cites.Create("ref", rel.TextSchema("ref_id", "paper_id", "target"))
	forms := []string{"UniProt:P%06d", "x|P%06d", "P%06d", "UniProt:Q%06d"}
	for i := 0; i < 30; i++ {
		paper.AppendRaw(fmt.Sprint(i+1), fmt.Sprintf("PM%05d", 20000+i), fmt.Sprintf("paper about protein %d", i))
		for k := 0; k < 2; k++ {
			ref.AppendRaw(fmt.Sprint(2*i+k+1), fmt.Sprint(i+1), fmt.Sprintf(forms[(i+k)%len(forms)], 100000+(i*7+k)%45))
		}
	}
	return []*Source{makeSource(t, cites), makeSource(t, prot)}
}

// goldenAll registers srcs whole and runs DiscoverAll, then streams the
// streamed ones in three batches, grown, against the others, then runs
// DiscoverAll over them.
func goldenAll(t *testing.T, opts Options, srcs []*Source, streamed []string,
	render func(call string, nu *Source, links []metadata.Link, xattrs []XRefAttribute) []string) []string {

	links, xattrs, _ := newEngine(t, opts, srcs...).DiscoverAll()
	out := render("all", nil, links, xattrs)
	if len(streamed) == 0 {
		return out
	}
	e := New(opts)
	var stream []*Source
	for _, s := range srcs {
		if slices.Contains(streamed, s.Name()) {
			stream = append(stream, s)
		} else if err := e.AddSource(s); err != nil {
			t.Fatal(err)
		}
	}
	out = append(out, streamGrown(t, e, stream, 3, render)...)
	links, xattrs, _ = e.DiscoverAll()
	return append(out, render("grown", nil, links, xattrs)...)
}

// TestEntityLinkGolden and TestXRefLinkGolden replay every golden at
// workers 1, 2 and 4. Entity links: datagen seeds 1 and 6 at 40 and 200
// proteins through DiscoverAll, and the adversarial pair added whole,
// then streamed in three interleaved batches with each batch grown into
// its registered source, then all again. XRef attributes and links: the
// flat-file corpus (EMBL 1,200, GenBank 24, OBO 50) and the composite
// corpus, whole, then with the cited source streamed.
func TestEntityLinkGolden(t *testing.T) {
	var goldens []linkGolden
	for _, seed := range []int64{1, 6} {
		for _, proteins := range []int{40, 200} {
			corpus := datagen.Generate(datagen.Config{Seed: seed, Proteins: proteins})
			var srcs []*Source
			for _, db := range corpus.Sources {
				srcs = append(srcs, makeSource(t, db))
			}
			goldens = append(goldens, linkGolden{fmt.Sprintf("entitylinks_seed%d_p%d.txt", seed, proteins),
				func(w int) []string { return goldenAll(t, entityOptions(w), srcs, nil, entityLines) }})
		}
	}
	adv := adversarialSources(t)
	goldens = append(goldens, linkGolden{"entitylinks_adversarial.txt", func(w int) []string {
		return goldenAll(t, entityOptions(w), adv, []string{"alpha", "beta"}, entityLines)
	}})
	replayGoldens(t, goldens)
}

func TestXRefLinkGolden(t *testing.T) {
	flat, composite := flatSources(t), compositeSources(t)
	replayGoldens(t, []linkGolden{
		{"xreflinks_embl1200.txt", func(w int) []string {
			return goldenAll(t, xrefOptions(w), flat, []string{"swissprot"}, xrefLines)
		}},
		{"xreflinks_composite.txt", func(w int) []string {
			return goldenAll(t, xrefOptions(w), composite, []string{"cites"}, xrefLines)
		}},
	})
}

// linkGolden is one golden file and the run that reproduces it.
type linkGolden struct {
	file string
	run  func(workers int) []string
}

// replayGoldens compares each golden with its run at workers 1, 2 and 4,
// line by line, or rewrites it under -update.
func replayGoldens(t *testing.T, goldens []linkGolden) {
	t.Helper()
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
				if got[i] != want[i] {
					t.Errorf("%s workers=%d line %d:\n got  %s\n want %s", g.file, w, i+1, got[i], want[i])
					break
				}
			}
		}
	}
}
