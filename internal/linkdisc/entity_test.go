package linkdisc

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/discovery"
	"repro/internal/metadata"
	"repro/internal/profile"
	"repro/internal/rel"
)

// namedSource is a source of one relation entry (acc, name, note) whose
// structure is given, not discovered: acc and name unique, note a text
// field.
func namedSource(name string, rows ...[3]string) *Source {
	db := rel.NewDatabase(name)
	entry := db.Create("entry", rel.TextSchema("acc", "name", "note"))
	for _, r := range rows {
		entry.AppendRaw(r[0], r[1], r[2])
	}
	st := &discovery.Structure{Primary: "entry", PrimaryAccession: "acc",
		UniqueColumns: map[string][]string{"entry": {"acc", "name"}}}
	profs := map[string]*profile.ColumnProfile{
		"entry.acc":  {Distinct: len(rows)},
		"entry.name": {Distinct: len(rows)},
		"entry.note": {Distinct: len(rows), MeanTokens: 5, MeanLen: 30},
	}
	return &Source{DB: db, Structure: st, Profiles: profs}
}

// entityMethods are the methods of the entity links from's documents
// make to to's objects, as "<from> -> <to> <method>".
func entityMethods(t *testing.T, from, to *Source) []string {
	t.Helper()
	e := New(Options{})
	e.fill(from)
	e.fill(to)
	links, err := e.discoverEntityLinks(context.Background(), from, to)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, l := range links {
		out = append(out, fmt.Sprintf("%s -> %s %s", l.From.Accession, l.To.Accession, l.Method))
	}
	return out
}

// A document links to the objects a word or a pair of words of its text
// names, whatever the case, under the mention's own spelling.
func TestEntityLinksFromDictionary(t *testing.T) {
	names := namedSource("names",
		[3]string{"N1", "hemoglobin", "a"}, [3]string{"N2", "insulin receptor", "b"}, [3]string{"N3", "water", "c"})
	docs := namedSource("docs",
		[3]string{"D1", "doc one", "Binding of Hemoglobin to the insulin receptor was observed."})
	want := []string{"D1 -> N1 entity:Hemoglobin", "D1 -> N2 entity:insulin receptor"}
	if got := entityMethods(t, docs, names); !slices.Equal(got, want) {
		t.Errorf("entity links %q, want %q", got, want)
	}
}

// A canceled integration stops the entity channel before it reads a
// document.
func TestEntityLinksCanceled(t *testing.T) {
	names := namedSource("names", [3]string{"N1", "hemoglobin", "a"})
	docs := namedSource("docs", [3]string{"D1", "doc one", "Binding of hemoglobin."})
	e := New(Options{})
	e.fill(docs)
	e.fill(names)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if links, err := e.discoverEntityLinks(ctx, docs, names); err != context.Canceled || links != nil {
		t.Errorf("canceled entity pass gave %v, %v; want no links and context.Canceled", links, err)
	}
}

// A name a document mentions several times, in several spellings, links
// once, under its first spelling; a longer word holding it is another
// word.
func TestEntityLinksDeduplicate(t *testing.T) {
	names := namedSource("names", [3]string{"N1", "brca1", "a"})
	docs := namedSource("docs", [3]string{"D1", "doc one", "BRCA1 interacts with BRCA1 in brca1-null cells"})
	want := []string{"D1 -> N1 entity:BRCA1"}
	if got := entityMethods(t, docs, names); !slices.Equal(got, want) {
		t.Errorf("entity links %q, want %q", got, want)
	}
}

// formsDump renders the forms of s but its ownership table, built or
// grown, position for position where order matters, and as sets where
// it does not: the dictionary by lower-cased name, the key index by
// hash, the value sets by value.
func formsDump(s *Source) string {
	f := &s.forms
	var b strings.Builder
	if ef := f.entity; ef != nil {
		nc := nameColsOf(s, s.primary())
		var names []string
		for i := range ef.nameRow {
			names = append(names, fmt.Sprintf("%q row %d col %d", strings.ToLower(ef.name(nc, int32(i))), ef.nameRow[i], ef.nameCol[i]))
		}
		slices.Sort(names)
		fmt.Fprintf(&b, "names %q\ndocs %v %v\n", names, ef.docRow, ef.docStart)
		fmt.Fprintf(&b, "keys %s\n", chainsDump(&ef.keys))
	}
	var keys []string
	for key, vs := range f.values {
		var vals []string
		r := s.DB.Relation(vs.rel)
		for i, row := range vs.row {
			vals = append(vals, fmt.Sprintf("%q row %d parts %q", r.Tuples[row][vs.col].AsString(), row, vs.parts[vs.cut[i]:vs.cut[i+1]]))
		}
		slices.Sort(vals)
		keys = append(keys, fmt.Sprintf("values %s %q", key, vals))
	}
	slices.Sort(keys)
	fmt.Fprintf(&b, "%s\naccessions %d from profile %v\n", strings.Join(keys, "\n"), len(f.acc), f.accOf != nil)
	return b.String()
}

// chainsDump lists each hash's items, latest first.
func chainsDump(c *hashChains) string {
	var out []string
	for h := range c.last {
		var items []int32
		for i := c.of(h); i >= 0; i = c.prev[i] {
			items = append(items, i)
		}
		out = append(out, fmt.Sprintf("%x:%v", h, items))
	}
	slices.Sort(out)
	return strings.Join(out, " ")
}

// A source's forms grown batch by batch are the forms built from the
// whole source: the random corpora and the adversarial pair, streamed in
// three batches beside a partner source as core streams them — each
// batch discovered (DiscoverAgainst, then DiscoverAppended), which builds
// its forms, then registered or grown into the registered source. The
// text form is compared whole; a missing batch form drops the registered
// one.
func TestFormsGrownMatchWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	srcs := append(randomCorpus(t, rng, profile.Options{}), adversarialSources(t)...)
	for _, s := range srcs {
		e := newEngine(t, Options{}, namedSource("partner", [3]string{"X1", "partner", "a note"}))
		streamGrown(t, e, []*Source{s}, 3, func(string, *Source, []metadata.Link, []XRefAttribute) []string { return nil })
		reg := e.Source(s.Name())
		if f := reg.forms; f.text == nil || f.entity == nil || len(f.values) != len(e.xrefCandidates(reg, nil)) {
			t.Fatalf("%s: forms lost at publish: text %v entity %v values %d of %d", s.Name(),
				f.text != nil, f.entity != nil, len(f.values), len(e.xrefCandidates(reg, nil)))
		}
		whole := &Source{DB: reg.DB, Structure: s.Structure, Profiles: s.Profiles}
		New(Options{}).fill(whole)
		if got, want := formsDump(reg), formsDump(whole); got != want {
			t.Errorf("%s: forms grown in 3 batches\n%s\ndiffer from the whole source's\n%s", s.Name(), got, want)
		}
		if !reflect.DeepEqual(reg.forms.text, e.terms.form(textDocs(whole))) {
			t.Errorf("%s: grown text form differs from the whole source's", s.Name())
		}

		// A batch without forms, as a restored one, drops the forms that
		// grow with the data.
		last := batchOf(s, 2, 3)
		last.Owners()
		grow(e, last)
		if f := reg.forms; f.text != nil || f.entity != nil || len(f.values) != 0 {
			t.Errorf("%s: forms grown by a batch without forms: text %v entity %v values %d", s.Name(), f.text != nil, f.entity != nil, len(f.values))
		}
	}
}

// Names, keys and values whose hashes collide stay apart: kin8127 and
// kin28282 share a name hash, ref2742 and ref11936 a value hash. The
// entity channel is checked probing from either side: against a short
// dictionary from the document's keys, against a long one from its
// names.
func TestFormsResolveHashCollisions(t *testing.T) {
	if fold(lowerHash(fnvOffset, "kin8127")) != fold(lowerHash(fnvOffset, "KIN28282")) {
		t.Fatal("kin8127 and kin28282 no longer share a hash")
	}
	if fold(rel.Str("ref2742").Hash64()) != fold(rel.Str("ref11936").Hash64()) {
		t.Fatal("ref2742 and ref11936 no longer share a hash")
	}
	rows := [][3]string{{"N1", "kin8127", "a"}, {"N2", "kin28282", "b"}}
	docs := namedSource("docs", [3]string{"D1", "doc one", "kin28282 binds KIN8127, then kin8127 again"})
	want := []string{"D1 -> N2 entity:kin28282", "D1 -> N1 entity:KIN8127"}
	for _, filler := range []int{0, 40} {
		names := rows
		for i := 0; i < filler; i++ {
			names = append(names, [3]string{fmt.Sprintf("F%d", i), fmt.Sprintf("filler%d", i), "c"})
		}
		if got := entityMethods(t, docs, namedSource("names", names...)); !slices.Equal(got, want) {
			t.Errorf("%d filler names: entity links %q, want %q", filler, got, want)
		}
	}

	db := rel.NewDatabase("refs")
	r := db.Create("ref", rel.TextSchema("target"))
	for _, v := range []string{"ref2742", "ref11936", "ref2742", "x|ref11936"} {
		r.AppendRaw(v)
	}
	vs := valueSetOf(r, 0)
	frac, n, composite := vs.matchFraction(r, map[string]bool{"ref11936": true})
	if len(vs.row) != 3 || frac != 2.0/3 || n != 2 || composite {
		t.Errorf("value set of %d values matches %v, %d, %v; want 3 values matching 2/3, 2, false", len(vs.row), frac, n, composite)
	}
}
