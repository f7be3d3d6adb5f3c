package core

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/flatfile"
	"repro/internal/rel"
)

// The browse goldens pin every object's view — fields, same-relation
// neighbours and §4.3 dependent rows — on generated and flat-file
// corpora. -update rewrites them from the code under test; only a
// deliberate change to what a view shows may do that.
var update = flag.Bool("update", false, "rewrite testdata/browse_*.txt from the code under test")

// TestBrowseGolden replays the browse goldens.
func TestBrowseGolden(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func(t *testing.T) *System
	}{
		{"seed1_p40", datagenSystem(datagen.Config{Seed: 1, Proteins: 40})},
		{"seed1_p200", datagenSystem(datagen.Config{Seed: 1, Proteins: 200})},
		{"seed6_p40", datagenSystem(datagen.Config{Seed: 6, Proteins: 40})},
		{"seed6_p200", datagenSystem(datagen.Config{Seed: 6, Proteins: 200})},
		{"eqdict_p100", datagenSystem(datagen.Config{Seed: 3, Proteins: 100, Noise: datagen.Noise{EqualDictionaries: true}})},
		{"flatfiles", flatFileSystem},
		{"twouploads", twoUploadSystem},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := browseText(t, c.build(t))
			path := filepath.Join("testdata", "browse_"+c.name+".txt")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := range min(len(gl), len(wl)) {
					if gl[i] != wl[i] {
						t.Fatalf("%s differs at line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
			}
		})
	}
}

// datagenSystem integrates a generated six-source corpus.
func datagenSystem(cfg datagen.Config) func(t *testing.T) *System {
	return func(t *testing.T) *System {
		sys, _ := buildSystem(t, cfg, Options{})
		return sys
	}
}

// flatFileSystem integrates 1,200 EMBL entries and 24 GenBank records
// citing them.
func flatFileSystem(t *testing.T) *System {
	var embl, gb strings.Builder
	if err := datagen.EMBLText(&embl, 1200, 50, 7); err != nil {
		t.Fatal(err)
	}
	if err := datagen.GenBankText(&gb, 24, 1200, 7); err != nil {
		t.Fatal(err)
	}
	sys := New(Options{})
	for _, f := range []struct{ format, name, text string }{
		{"embl", "swissprot", embl.String()}, {"genbank", "genbank", gb.String()},
	} {
		if _, err := sys.AddSource(parseFlat(t, f.format, f.text, f.name)); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// twoUploadSystem adds 600 EMBL entries as a source, then appends 600
// more: the parser numbers entry_id from 1 in both uploads.
func twoUploadSystem(t *testing.T) *System {
	var embl strings.Builder
	if err := datagen.EMBLText(&embl, 1200, 50, 7); err != nil {
		t.Fatal(err)
	}
	text := embl.String()
	cut := 0
	for range 600 {
		cut += strings.Index(text[cut:], "//\n") + 3
	}
	sys := New(Options{})
	if _, err := sys.AddSource(parseFlat(t, "embl", text[:cut], "swissprot")); err != nil {
		t.Fatal(err)
	}
	if _, err := appendToSource(context.Background(), sys, "swissprot", parseFlat(t, "embl", text[cut:], "swissprot")); err != nil {
		t.Fatal(err)
	}
	return sys
}

func parseFlat(t *testing.T, format, text, name string) *rel.Database {
	t.Helper()
	db, err := flatfile.Parse(format, strings.NewReader(text), name)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// browseText renders the view of every object of every source, in
// source and accession order: the object's fields, its neighbours, then
// one line per dependent row, relation first. Fields are listed in
// column order, named once per source in a header, "\\N" for NULL.
func browseText(t *testing.T, sys *System) string {
	var sb strings.Builder
	for _, name := range sys.Sources() {
		db := sys.sources[strings.ToLower(name)]
		for _, r := range db.Relations() {
			fmt.Fprintf(&sb, "# %s.%s: %s\n", name, r.Name, strings.Join(r.Schema.Names(), " | "))
		}
		for _, ref := range sys.Objects(name) {
			v, err := sys.Browse(ref)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sb, "%s %s prev=%s next=%s\n  %s\n", ref.Source, ref.Accession,
				v.PrevAccession, v.NextAccession, fieldText(db.Relation(ref.Relation), v.Fields))
			for _, a := range v.Annotations {
				fmt.Fprintf(&sb, "  %s: %s\n", a.Relation, fieldText(db.Relation(a.Relation), a.Fields))
			}
		}
	}
	return sb.String()
}

// fieldText lists a view's fields in r's column order. A value longer
// than 80 bytes, a sequence mostly, is written as its length and FNV-1a
// hash.
func fieldText(r *rel.Relation, fields map[string]string) string {
	parts := make([]string, len(r.Schema.Columns))
	for i, c := range r.Schema.Columns {
		v, ok := fields[strings.ToLower(c.Name)]
		switch {
		case !ok:
			v = `\N`
		case len(v) > 80:
			h := fnv.New64a()
			h.Write([]byte(v))
			v = fmt.Sprintf("#%d:%016x", len(v), h.Sum64())
		}
		parts[i] = v
	}
	return strings.Join(parts, " | ")
}
