package discovery

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/flatfile"
	"repro/internal/ingest"
	"repro/internal/rel"
)

// The ownership table replaced two answers to one question: link
// discovery's resolver, which walked each tuple backwards along its
// shortest path, and search indexing's forward index, which walked every
// path forward and kept one owner per tuple. Both are kept below, as they
// were in commit 12f07de, as oracles: the table must list the resolver's
// owners in the resolver's order, and its first owner must be the forward
// index's.

// parentMaxOwners is the resolver's cap on owners per tuple.
const parentMaxOwners = 16

// parentResolver is the resolver link discovery used (without the lock
// that guarded its lazily built column indexes).
type parentResolver struct {
	db        *rel.Database
	structure *Structure
	accIdx    int
	indexes   map[string]map[string][]int
}

func newParentResolver(db *rel.Database, s *Structure) *parentResolver {
	r := &parentResolver{db: db, structure: s, accIdx: -1, indexes: make(map[string]map[string][]int)}
	if s.Primary != "" {
		if pr := db.Relation(s.Primary); pr != nil {
			r.accIdx = pr.Schema.Index(s.PrimaryAccession)
		}
	}
	return r
}

func (r *parentResolver) index(relName, col string) map[string][]int {
	key := strings.ToLower(relName) + "." + strings.ToLower(col)
	if ix, ok := r.indexes[key]; ok {
		return ix
	}
	ix := make(map[string][]int)
	if rr := r.db.Relation(relName); rr != nil {
		if ci := rr.Schema.Index(col); ci >= 0 {
			for ti, t := range rr.Tuples {
				if v := t[ci]; !v.IsNull() {
					ix[v.Key()] = append(ix[v.Key()], ti)
				}
			}
		}
	}
	r.indexes[key] = ix
	return ix
}

func (r *parentResolver) owners(relName string, tupleIdx int) []string {
	if r.structure == nil || r.structure.Primary == "" || r.accIdx < 0 {
		return nil
	}
	rr := r.db.Relation(relName)
	if rr == nil || tupleIdx >= len(rr.Tuples) {
		return nil
	}
	if strings.EqualFold(relName, r.structure.Primary) {
		v := rr.Tuples[tupleIdx][r.accIdx]
		if v.IsNull() {
			return nil
		}
		return []string{v.AsString()}
	}
	paths := r.structure.Paths[strings.ToLower(relName)]
	if len(paths) == 0 {
		return nil
	}
	path := paths[0]
	frontier := []int{tupleIdx}
	curRel := rr
	for i := len(path.Steps) - 1; i >= 0; i-- {
		step := path.Steps[i]
		var prevRelName, curCol, prevCol string
		if step.Forward {
			prevRelName = step.Edge.From.FromRelation
			prevCol = step.Edge.From.FromColumn
			curCol = step.Edge.From.ToColumn
		} else {
			prevRelName = step.Edge.From.ToRelation
			prevCol = step.Edge.From.ToColumn
			curCol = step.Edge.From.FromColumn
		}
		curColIdx := curRel.Schema.Index(curCol)
		if curColIdx < 0 {
			return nil
		}
		ix := r.index(prevRelName, prevCol)
		var next []int
		seen := make(map[int]bool)
		for _, ti := range frontier {
			v := curRel.Tuples[ti][curColIdx]
			if v.IsNull() {
				continue
			}
			for _, pi := range ix[v.Key()] {
				if !seen[pi] {
					seen[pi] = true
					next = append(next, pi)
					if len(next) >= parentMaxOwners {
						break
					}
				}
			}
			if len(next) >= parentMaxOwners {
				break
			}
		}
		if len(next) == 0 {
			return nil
		}
		frontier = next
		curRel = r.db.Relation(prevRelName)
		if curRel == nil {
			return nil
		}
	}
	var out []string
	seen := make(map[string]bool)
	for _, ti := range frontier {
		v := curRel.Tuples[ti][r.accIdx]
		if v.IsNull() {
			continue
		}
		if s := v.AsString(); !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// parentOwnerIndex is the forward index search indexing used.
type parentOwnerIndex struct {
	db  *rel.Database
	st  *Structure
	acc map[string][]string
}

func newParentOwnerIndex(db *rel.Database, st *Structure) *parentOwnerIndex {
	oi := &parentOwnerIndex{db: db, st: st, acc: make(map[string][]string)}
	pr := db.Relation(st.Primary)
	if pr == nil {
		return oi
	}
	ai := pr.Schema.Index(st.PrimaryAccession)
	owners := make([]string, len(pr.Tuples))
	for i, t := range pr.Tuples {
		if !t[ai].IsNull() {
			owners[i] = t[ai].AsString()
		}
	}
	oi.acc[strings.ToLower(pr.Name)] = owners
	for _, paths := range st.Paths {
		if len(paths) > 0 {
			oi.propagate(paths[0])
		}
	}
	return oi
}

func (oi *parentOwnerIndex) propagate(path Path) {
	pr := oi.db.Relation(oi.st.Primary)
	curOwners := oi.acc[strings.ToLower(pr.Name)]
	curRel := pr
	for _, step := range path.Steps {
		var curCol, nextRelName, nextCol string
		if step.Forward {
			curCol, nextRelName, nextCol = step.Edge.From.FromColumn, step.Edge.From.ToRelation, step.Edge.From.ToColumn
		} else {
			curCol, nextRelName, nextCol = step.Edge.From.ToColumn, step.Edge.From.FromRelation, step.Edge.From.FromColumn
		}
		ci := curRel.Schema.Index(curCol)
		nextRel := oi.db.Relation(nextRelName)
		if ci < 0 || nextRel == nil {
			return
		}
		ni := nextRel.Schema.Index(nextCol)
		if ni < 0 {
			return
		}
		valueOwner := make(map[string]string)
		for ti, t := range curRel.Tuples {
			if curOwners[ti] == "" || t[ci].IsNull() {
				continue
			}
			if _, ok := valueOwner[t[ci].Key()]; !ok {
				valueOwner[t[ci].Key()] = curOwners[ti]
			}
		}
		nextOwners := make([]string, len(nextRel.Tuples))
		for ti, t := range nextRel.Tuples {
			if !t[ni].IsNull() {
				nextOwners[ti] = valueOwner[t[ni].Key()]
			}
		}
		key := strings.ToLower(nextRelName)
		if existing, ok := oi.acc[key]; ok {
			for i := range nextOwners {
				if nextOwners[i] == "" && existing[i] != "" {
					nextOwners[i] = existing[i]
				}
			}
		}
		oi.acc[key] = nextOwners
		curOwners, curRel = nextOwners, nextRel
	}
}

func (oi *parentOwnerIndex) owner(relation string, tupleIdx int) string {
	owners := oi.acc[strings.ToLower(relation)]
	if tupleIdx >= len(owners) {
		return ""
	}
	return owners[tupleIdx]
}

// checkOracles compares the table of db with both oracles on every
// tuple and returns how many tuples have owners and the most owners one
// tuple has.
func checkOracles(t *testing.T, db *rel.Database, st *Structure) (owned, most int) {
	t.Helper()
	if st.Primary == "" {
		t.Fatalf("%s: no primary relation", db.Name)
	}
	table := OwnersOf(db, st)
	res, fwd := newParentResolver(db, st), newParentOwnerIndex(db, st)
	for _, r := range db.Relations() {
		for ti := range r.Tuples {
			got, want := table.Of(r.Name, ti), res.owners(r.Name, ti)
			if !slices.Equal(got, want) {
				t.Fatalf("%s.%s[%d]: table %v, resolver %v", db.Name, r.Name, ti, got, want)
			}
			first := ""
			if len(got) > 0 {
				first = got[0]
				owned++
			}
			if f := fwd.owner(r.Name, ti); first != f {
				t.Fatalf("%s.%s[%d]: table's first owner %q, forward index %q", db.Name, r.Name, ti, first, f)
			}
			most = max(most, len(got))
		}
	}
	return owned, most
}

// TestOwnersMatchParentResolvers checks the table against both oracles
// on the generated six-source corpora, on bridge corpora with two-hop
// and capped ownership, and on EMBL, GenBank and OBO flat files.
func TestOwnersMatchParentResolvers(t *testing.T) {
	for _, seed := range []int64{1, 5, 7, 11} {
		for _, n := range []int{30, 200} {
			for _, db := range datagen.Generate(datagen.Config{Seed: seed, Proteins: n}).Sources {
				if owned, _ := checkOracles(t, db, analyze(t, db, DefaultOptions())); owned == 0 {
					t.Errorf("seed %d, %d proteins: %s has no owned tuple", seed, n, db.Name)
				}
			}
		}
	}
	for _, c := range []struct {
		db   *rel.Database
		most int
	}{{twoHopCorpus(), 2}, {hubCorpus(), parentMaxOwners}} {
		if _, most := checkOracles(t, c.db, analyze(t, c.db, DefaultOptions())); most != c.most {
			t.Errorf("bridge corpus: at most %d owners per tuple, want %d", most, c.most)
		}
	}
	for _, f := range flatFiles() {
		db, err := flatfile.Parse(f.format, strings.NewReader(f.text), f.format)
		if err != nil {
			t.Fatal(err)
		}
		if owned, _ := checkOracles(t, db, analyze(t, db, DefaultOptions())); owned < db.TotalTuples()/2 {
			t.Errorf("%s: only %d of %d tuples owned", f.format, owned, db.TotalTuples())
		}
	}
}

// TestOwnersAppendedBatchesMatchWhole streams the EMBL and GenBank files
// in three batches: the batches' tables, appended in order, give every
// tuple of the whole file the owners the whole file's table gives it.
func TestOwnersAppendedBatchesMatchWhole(t *testing.T) {
	for _, f := range flatFiles() {
		if !flatfile.Streamable(f.format) {
			continue
		}
		whole, err := flatfile.Parse(f.format, strings.NewReader(f.text), f.format)
		if err != nil {
			t.Fatal(err)
		}
		st := analyze(t, whole, DefaultOptions())
		sc, err := flatfile.NewScanner(f.format, strings.NewReader(f.text))
		if err != nil {
			t.Fatal(err)
		}
		var grown *Owners
		batches := 0
		run := &ingest.Runner{Scanner: sc, Opts: ingest.Options{BatchRecords: (f.records + 2) / 3},
			Commit: func(_ context.Context, batch *rel.Database) (ingest.CommitInfo, error) {
				batches++
				if grown == nil {
					grown = OwnersOf(batch, st)
				} else {
					grown.Append(OwnersOf(batch, st))
				}
				return ingest.CommitInfo{}, nil
			}}
		if _, err := run.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if batches != 3 {
			t.Fatalf("%s: %d batches, want 3", f.format, batches)
		}
		want := OwnersOf(whole, st)
		for _, r := range whole.Relations() {
			for ti := range r.Tuples {
				if got, w := grown.Of(r.Name, ti), want.Of(r.Name, ti); !slices.Equal(got, w) {
					t.Fatalf("%s.%s[%d]: appended batches %v, whole file %v", f.format, r.Name, ti, got, w)
				}
			}
			if got := grown.Of(r.Name, len(r.Tuples)); got != nil {
				t.Errorf("%s.%s: appended table runs past the relation: %v", f.format, r.Name, got)
			}
		}
	}
}

// TestOwnedInvertsOf checks the inverse against the table it inverts,
// built in one piece on generated, bridge and flat-file corpora, and
// grown by a second upload that reuses the first's surrogate ids.
func TestOwnedInvertsOf(t *testing.T) {
	dbs := append(datagen.Generate(datagen.Config{Seed: 1, Proteins: 60}).Sources, twoHopCorpus(), hubCorpus())
	for _, f := range flatFiles() {
		db, err := flatfile.Parse(f.format, strings.NewReader(f.text), f.format)
		if err != nil {
			t.Fatal(err)
		}
		dbs = append(dbs, db)
	}
	for _, db := range dbs {
		checkInverse(t, db, OwnersOf(db, analyze(t, db, DefaultOptions())))
	}
	text := flatFiles()[0].text
	cut := len(text)/2 + strings.Index(text[len(text)/2:], "//\n") + 3
	first, err := flatfile.Parse("embl", strings.NewReader(text[:cut]), "embl")
	if err != nil {
		t.Fatal(err)
	}
	second, err := flatfile.Parse("embl", strings.NewReader(text[cut:]), "embl")
	if err != nil {
		t.Fatal(err)
	}
	st := analyze(t, first, DefaultOptions())
	grown := OwnersOf(first, st)
	grown.Append(OwnersOf(second, st))
	whole := rel.NewDatabase("embl")
	for _, r := range first.Relations() {
		whole.Create(r.Name, r.Schema).Tuples = append(slices.Clip(r.Tuples), second.Relation(r.Name).Tuples...)
	}
	checkInverse(t, whole, grown)
	if got := grown.Owned("entry", "no such accession"); got != nil {
		t.Errorf("an unknown owner owns %v", got)
	}
}

// checkInverse checks that o.Owned lists, for every owner of a tuple of
// db, the tuples o.Of gives it, ascending.
func checkInverse(t *testing.T, db *rel.Database, o *Owners) {
	t.Helper()
	for _, r := range db.Relations() {
		want := make(map[string][]int32)
		for ti := range r.Tuples {
			for _, a := range o.Of(r.Name, ti) {
				want[a] = append(want[a], int32(ti))
			}
		}
		for a, ts := range want {
			if got := o.Owned(r.Name, a); !slices.Equal(got, ts) {
				t.Fatalf("%s.%s: %s owns %v, the table gives it %v", db.Name, r.Name, a, got, ts)
			}
		}
	}
}

// TestOwnersOfBatchesKeepsUploadsApart parses the two halves of the EMBL
// file as two uploads, whose entry_id surrogates both start at 1. Rebuilt
// from the concatenated relations and the grown table's batch sizes, as
// a checkpoint restores a source, the table is the grown one; built in
// one piece it mixes the uploads.
func TestOwnersOfBatchesKeepsUploadsApart(t *testing.T) {
	text := flatFiles()[0].text
	cut := len(text)/2 + strings.Index(text[len(text)/2:], "//\n") + 3
	var uploads []*rel.Database
	for _, part := range []string{text[:cut], text[cut:]} {
		db, err := flatfile.Parse("embl", strings.NewReader(part), "embl")
		if err != nil {
			t.Fatal(err)
		}
		uploads = append(uploads, db)
	}
	st := analyze(t, uploads[0], DefaultOptions())
	grown := OwnersOf(uploads[0], st)
	grown.Append(OwnersOf(uploads[1], st))
	whole := rel.NewDatabase("embl")
	for _, r := range uploads[0].Relations() {
		whole.Create(r.Name, r.Schema).Tuples = append(slices.Clip(r.Tuples), uploads[1].Relation(r.Name).Tuples...)
	}
	rebuilt, err := OwnersOfBatches(whole, st, grown.Batches(whole))
	if err != nil {
		t.Fatal(err)
	}
	oneShot, mixed := OwnersOf(whole, st), 0
	for _, r := range whole.Relations() {
		for ti := range r.Tuples {
			want := grown.Of(r.Name, ti)
			if got := rebuilt.Of(r.Name, ti); !slices.Equal(got, want) {
				t.Fatalf("%s[%d]: rebuilt %v, grown %v", r.Name, ti, got, want)
			}
			if !slices.Equal(oneShot.Of(r.Name, ti), want) {
				mixed++
			}
		}
	}
	if mixed == 0 {
		t.Error("the one-piece table agrees with the grown one: the uploads share no surrogate id")
	}
	if got, want := rebuilt.Batches(whole), grown.Batches(whole); !reflect.DeepEqual(got, want) {
		t.Errorf("rebuilt batches %v, want %v", got, want)
	}
	if OwnersOf(whole, st).Batches(whole) != nil {
		t.Error("a table built in one piece reports batches")
	}
	for _, c := range []struct {
		what string
		edit func(sizes [][]int) [][]int
	}{
		{"for too few relations", func(s [][]int) [][]int { return s[1:] }},
		{"covering part of a relation", func(s [][]int) [][]int { s[1] = s[1][:1]; return s }},
		{"past a relation's end", func(s [][]int) [][]int { s[1][1]++; return s }},
		{"negative", func(s [][]int) [][]int { s[1][0], s[1][1] = -1, s[1][0]+s[1][1]+1; return s }},
	} {
		if _, err := OwnersOfBatches(whole, st, c.edit(grown.Batches(whole))); err == nil {
			t.Errorf("batch sizes %s rebuilt a table", c.what)
		}
	}
}

// bridgeDB links proteins 1..n to terms 71..73 through a bridge
// relation holding the given (protein, term) rows in order.
func bridgeDB(n int, rows [][2]int) *rel.Database {
	db := rel.NewDatabase("bridge")
	protein := db.Create("protein", rel.TextSchema("protein_id", "acc"))
	bridge := db.Create("protein_term", rel.TextSchema("protein_id", "term_id"))
	term := db.Create("term", rel.TextSchema("term_id", "term_label"))
	for i := 1; i <= n; i++ {
		protein.AppendRaw(fmt.Sprint(i), fmt.Sprintf("AC%04d", i))
	}
	for i := 1; i <= 3; i++ {
		term.AppendRaw(fmt.Sprint(70+i), fmt.Sprintf("label-%d", i))
	}
	for _, r := range rows {
		bridge.AppendRaw(fmt.Sprint(r[0]), fmt.Sprint(r[1]))
	}
	return db
}

// twoHopCorpus: proteins 1 and 4 reference term 71, 2 and 5 term 72,
// 3 and 6 term 73.
func twoHopCorpus() *rel.Database {
	var rows [][2]int
	for i := 1; i <= 6; i++ {
		rows = append(rows, [2]int{i, 70 + (i-1)%3 + 1})
	}
	return bridgeDB(6, rows)
}

// hubCorpus: proteins 1..20 reference term 71, more than a tuple keeps
// as owners, listed in reverse; proteins 21..30 reference term 72 or 73,
// protein 22 twice. Notes on the terms are a third hop, owned through
// the terms' owner lists; comments on proteins keep protein the relation
// with the highest in-degree.
func hubCorpus() *rel.Database {
	var rows [][2]int
	for i := 20; i >= 1; i-- {
		rows = append(rows, [2]int{i, 71})
	}
	for i := 21; i <= 30; i++ {
		rows = append(rows, [2]int{i, 72 + i%2})
	}
	db := bridgeDB(30, append(rows, [2]int{22, 72}))
	note := db.Create("term_note", rel.TextSchema("note_id", "term_id", "note"))
	for i, term := range []int{72, 71, 73, 71} {
		note.AppendRaw(fmt.Sprint(900+i), fmt.Sprint(term), fmt.Sprintf("note %d", i))
	}
	comment := db.Create("protein_comment", rel.TextSchema("protein_id", "comment"))
	for i := 1; i <= 30; i += 3 {
		comment.AppendRaw(fmt.Sprint(i), fmt.Sprintf("comment on protein %d", i))
	}
	return db
}

// TestOwnersTwoHop checks ownership through a bridge table:
// primary <- bridge -> leaf; a tuple in leaf is owned by the primary
// objects that reference it through the bridge, in primary tuple order.
func TestOwnersTwoHop(t *testing.T) {
	db := twoHopCorpus()
	st := analyze(t, db, DefaultOptions())
	if st.Primary != "protein" {
		t.Fatalf("primary = %q", st.Primary)
	}
	owners := OwnersOf(db, st)
	// term tuple 0 (term 71) is owned by proteins 1 and 4.
	if got := owners.Of("term", 0); !slices.Equal(got, []string{"AC0001", "AC0004"}) {
		t.Errorf("term owners = %v", got)
	}
	// bridge tuple 1 (protein 2) -> single owner AC0002.
	if got := owners.Of("protein_term", 1); !slices.Equal(got, []string{"AC0002"}) {
		t.Errorf("bridge owners = %v", got)
	}
}

// flatFile is one generated flat file.
type flatFile struct {
	format, text string
	records      int
}

// flatFiles renders files shaped like the integrate-linked benchmark's:
// 1,200 Swiss-Prot-style EMBL entries with dbrefs to GO, PDB and Pfam,
// keywords, comments and a sequence; 24 GenBank loci citing them; a
// 50-term OBO ontology.
func flatFiles() []flatFile {
	rng := rand.New(rand.NewSource(7))
	dna := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = "ACGT"[rng.Intn(4)]
		}
		return string(b)
	}
	var embl, gb, obo strings.Builder
	for i := 0; i < 1200; i++ {
		s := dna(150 + rng.Intn(100))
		fmt.Fprintf(&embl, "ID   ENTRY%d_HUMAN   Reviewed;   %d BP.\nAC   P%06d;\n", i+1, len(s), 100000+i)
		fmt.Fprintf(&embl, "DE   Protein %d of the test corpus.\nOS   Homo sapiens.\n", i)
		fmt.Fprintf(&embl, "DR   GO; GO:%07d; -.\nDR   PDB; %dXY%d; X-ray.\nDR   Pfam; PF%05d; fam.\n",
			1000+i%50, 1+rng.Intn(9), rng.Intn(30), rng.Intn(150))
		fmt.Fprintf(&embl, "KW   kw%d; kw%d.\nCC   -!- FUNCTION: role %d.\n", rng.Intn(20), 20+rng.Intn(20), rng.Intn(9))
		fmt.Fprintf(&embl, "SQ   SEQUENCE   %d BP;\n     %s\n//\n", len(s), s)
	}
	for i := 0; i < 24; i++ {
		s := strings.ToLower(dna(150 + rng.Intn(100)))
		fmt.Fprintf(&gb, "LOCUS       NM_%07d  %d bp  mRNA  linear\nDEFINITION  transcript %d.\n", 1000+i, len(s), i)
		fmt.Fprintf(&gb, "ACCESSION   NM_%07d\nSOURCE      Homo sapiens\n", 1000+i)
		fmt.Fprintf(&gb, "FEATURES             Location/Qualifiers\n     CDS             1..%d\n", len(s))
		fmt.Fprintf(&gb, "                     /db_xref=\"UniProtKB:P%06d\"\nORIGIN\n        1 %s\n//\n", 100000+rng.Intn(1200), s)
	}
	obo.WriteString("format-version: 1.2\n")
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&obo, "\n[Term]\nid: GO:%07d\nname: activity %d\nnamespace: molecular_function\n", 1000+i, i)
		if i > 0 {
			fmt.Fprintf(&obo, "is_a: GO:%07d ! parent\n", 1000+rng.Intn(i))
		}
	}
	return []flatFile{{"embl", embl.String(), 1200}, {"genbank", gb.String(), 24}, {"obo", obo.String(), 50}}
}
