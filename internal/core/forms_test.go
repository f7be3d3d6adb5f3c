package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/linkdisc"
	"repro/internal/metadata"
	"repro/internal/rel"
	"repro/internal/store"
)

// Tests of the lifecycle of the forms link discovery derives from a
// source (linkdisc.Source): grown at publish, dropped by DML, adopted
// from a re-analysis, rebuilt when first read after recovery or on a
// replica. Whatever swissprot went through, the sources integrated after
// it must find the links they find against swissprot integrated whole.

// formsCorpus is datagen's seed 11 at 40 proteins, swissprot under the
// name spcopy, and a tags source: one tag per protein of swissprot's
// second half, named by the first two words of the protein's
// description, which no other description holds.
type formsCorpus struct {
	*datagen.Corpus
	tags *rel.Database
}

func newFormsCorpus() formsCorpus {
	c := formsCorpus{Corpus: datagen.Generate(datagen.Config{Seed: 11, Proteins: 40})}
	c.tags = rel.NewDatabase("tags")
	tag := c.tags.Create("tag", rel.TextSchema("tag_id", "tag_acc", "label"))
	protein := c.Source("swissprot").Relation("protein")
	desc := protein.Schema.Index("description")
	for i, tu := range protein.Tuples[len(protein.Tuples)/2:] {
		words := strings.Fields(tu[desc].AsString())
		tag.AppendRaw(fmt.Sprint(i+1), fmt.Sprintf("TG%04d", i), words[0]+" "+words[1])
	}
	return c
}

// spcopy is swissprot under the name spcopy, in a database of its own:
// DML replaces the relations of the database it was integrated as.
func (c formsCorpus) spcopy() *rel.Database {
	db := c.Source("swissprot").ShallowClone()
	db.Name = "spcopy"
	return db
}

// later integrates the sources that come after spcopy: pdb and go, which
// spcopy cross-references (spcopy's value sets); omim, whose text names
// spcopy's entries (its entity dictionary); pir, whose text resembles
// spcopy's (its text form); and tags, whose names spcopy's late
// documents mention (its entity documents).
func (c formsCorpus) later(t *testing.T, sys *System) {
	t.Helper()
	for _, db := range []*rel.Database{c.Source("pdb"), c.Source("go"), c.Source("omim"), c.Source("pir"), c.tags} {
		if _, err := sys.AddSource(db.ShallowClone()); err != nil {
			t.Fatalf("%s: %v", db.Name, err)
		}
	}
}

// control integrates genbank, spcopy whole, then the later sources.
func (c formsCorpus) control(t *testing.T) *System {
	sys := New(defaultOpts())
	for _, db := range []*rel.Database{c.Source("genbank"), c.spcopy()} {
		if _, err := sys.AddSource(db); err != nil {
			t.Fatal(err)
		}
	}
	c.later(t, sys)
	return sys
}

// streamed integrates genbank, then spcopy in two batches, so both
// batches are linked and spcopy's forms grow at the second's publish.
func (c formsCorpus) streamed(t *testing.T, sys *System) {
	t.Helper()
	half := splitDatabase(t, c.spcopy(), "spcopy")
	for _, db := range []*rel.Database{c.Source("genbank"), half[0]} {
		if _, err := sys.AddSource(db); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := appendToSource(context.Background(), sys, "spcopy", half[1]); err != nil {
		t.Fatal(err)
	}
}

// laterLinks returns the stored links with an end in a later source,
// sorted, leaving out duplicates and derived ontology links, which no
// linkdisc form feeds. Unless intoStreamed, cross-references into spcopy
// are left out too: the accession set of a streamed source is its first
// batch's (ROADMAP item 2(b)).
func laterLinks(sys *System, intoStreamed bool) []metadata.Link {
	later := map[string]bool{"pdb": true, "go": true, "omim": true, "pir": true, "tags": true}
	var out []metadata.Link
	for _, l := range sys.Repo.AllLinks() {
		switch {
		case l.Type == metadata.LinkDuplicate || l.Type == metadata.LinkOntology:
		case l.Type == metadata.LinkXRef && l.To.Source == "spcopy" && !intoStreamed:
		case later[l.From.Source] || later[l.To.Source]:
			out = append(out, l)
		}
	}
	metadata.SortLinks(out)
	return out
}

// sameLinks fails t unless got and want hold the same links, confidences
// to the bit, and some of every kind the forms feed.
func sameLinks(t *testing.T, got, want []metadata.Link) {
	t.Helper()
	kinds := map[string]int{}
	for _, l := range want {
		kind := l.Type.String()
		if i := strings.IndexByte(l.Method, ':'); l.Type == metadata.LinkText && i > 0 {
			kind = l.Method[:i]
		}
		kinds[kind]++
	}
	for _, kind := range []string{"xref", "sequence", "text", "entity"} {
		if kinds[kind] == 0 {
			t.Fatalf("no %s links to compare: %v", kind, kinds)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d links, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("link %d:\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}
}

// missingForms names the forms that grow with the data — the text form,
// the entity form, the xref value sets — that src lacks. linkdisc keeps
// them unexported, so the test reads them by reflection.
func missingForms(t *testing.T, src *linkdisc.Source) []string {
	t.Helper()
	f := reflect.ValueOf(src).Elem().FieldByName("forms")
	var out []string
	for _, name := range []string{"text", "entity", "values"} {
		v := f.FieldByName(name)
		if !v.IsValid() {
			t.Fatalf("linkdisc.Source has no form %q", name)
		}
		if v.IsNil() {
			out = append(out, name)
		}
	}
	return out
}

// TestAppendGrowsTextForm: publish grows a streamed source's forms, the
// text form among them, by each batch's: they are still there after the
// batches were published, and later sources find through them the links
// they find against the source integrated whole.
func TestAppendGrowsTextForm(t *testing.T) {
	c := newFormsCorpus()
	sys := New(defaultOpts())
	c.streamed(t, sys)
	if missing := missingForms(t, sys.engine.Source("spcopy")); len(missing) > 0 {
		t.Fatalf("streamed source lacks forms %v after its batches were published", missing)
	}
	c.later(t, sys)
	sameLinks(t, laterLinks(sys, false), laterLinks(c.control(t), false))
}

// TestDMLDropsTextForm: a statement on a source whose forms, the text
// form among them, were built makes later sources find the links of the
// changed data — those they find when the statement ran before any form
// was built.
func TestDMLDropsTextForm(t *testing.T) {
	c := newFormsCorpus()
	build := func(formsFirst bool) *System {
		sys := New(defaultOpts())
		del := func() {
			if _, err := sys.Exec("DELETE FROM spcopy_protein WHERE accession = 'P10023'"); err != nil {
				t.Fatal(err)
			}
		}
		// Alone, spcopy is linked against nothing and builds no form;
		// linking genbank against it builds them.
		if _, err := sys.AddSource(c.spcopy()); err != nil {
			t.Fatal(err)
		}
		if !formsFirst {
			del()
		}
		if _, err := sys.AddSource(c.Source("genbank")); err != nil {
			t.Fatal(err)
		}
		if formsFirst {
			del()
		}
		c.later(t, sys)
		return sys
	}
	sameLinks(t, laterLinks(build(true), true), laterLinks(build(false), true))
}

// TestReanalyzeAdoptsForms: re-analyzing a streamed source gives it the
// structure, profiles and forms of the whole source.
func TestReanalyzeAdoptsForms(t *testing.T) {
	c := newFormsCorpus()
	sys := New(defaultOpts())
	c.streamed(t, sys)
	if _, err := sys.Reanalyze("spcopy"); err != nil {
		t.Fatal(err)
	}
	if missing := missingForms(t, sys.engine.Source("spcopy")); len(missing) > 0 {
		t.Fatalf("re-analyzed source lacks forms %v", missing)
	}
	c.later(t, sys)
	sameLinks(t, laterLinks(sys, true), laterLinks(c.control(t), true))
}

// TestRecoveryRebuildsForms: a recovered node and a replica, whose
// sources carry no form but the ownership table, rebuild the rest when
// later sources first read them.
func TestRecoveryRebuildsForms(t *testing.T) {
	c := newFormsCorpus()
	path := t.TempDir()
	dir, err := store.OpenDir(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	primary := New(defaultOpts())
	primary.AttachDurable(dir)
	c.streamed(t, primary)

	recoveredDir, err := store.OpenDir(copyDir(t, path))
	if err != nil {
		t.Fatal(err)
	}
	defer recoveredDir.Close()
	recovered, _, err := Recover(defaultOpts(), recoveredDir)
	if err != nil {
		t.Fatal(err)
	}
	replica := emptyReplica(t, defaultOpts())
	followFrames(t, replica, dir)

	want := laterLinks(c.control(t), false)
	for _, sys := range []*System{recovered, replica} {
		c.later(t, sys)
		sameLinks(t, laterLinks(sys, false), want)
	}
}
