package objectweb

import (
	"fmt"
	"testing"

	"repro/internal/discovery"
	"repro/internal/metadata"
	"repro/internal/profile"
	"repro/internal/rel"
)

// buildSource creates a small analyzed source with a primary "entry"
// relation and a dependent "note" relation.
func buildSource(t *testing.T, name, accPrefix string, n int) (*rel.Database, *discovery.Structure) {
	t.Helper()
	db := rel.NewDatabase(name)
	entry := db.Create("entry", rel.TextSchema("entry_id", "acc", "label"))
	note := db.Create("note", rel.TextSchema("note_id", "entry_id", "note_text"))
	for i := 0; i < n; i++ {
		entry.AppendRaw(fmt.Sprintf("%d", i+1), fmt.Sprintf("%s%04d", accPrefix, i),
			fmt.Sprintf("object %d label text", i))
		note.AppendRaw(fmt.Sprintf("%d", 2*i+1), fmt.Sprintf("%d", i+1), fmt.Sprintf("first note about %d", i))
		note.AppendRaw(fmt.Sprintf("%d", 2*i+2), fmt.Sprintf("%d", i+1), fmt.Sprintf("second note about %d", i))
	}
	profs, err := profile.ProfileDatabase(db, profile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := discovery.Analyze(db, profs, discovery.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.Primary != "entry" {
		t.Fatalf("%s primary = %q", name, st.Primary)
	}
	return db, st
}

func ref(src, acc string) metadata.ObjectRef {
	return metadata.ObjectRef{Source: src, Relation: "entry", Accession: acc}
}

// owners holds the ownership tables of the sources setup installs.
var owners = map[string]*discovery.Owners{}

func setup(t *testing.T) (*Web, *metadata.Repo) {
	t.Helper()
	repo := metadata.NewRepo()
	w := New(repo)
	dbA, stA := buildSource(t, "srca", "AA", 5)
	dbB, stB := buildSource(t, "srcb", "BB", 5)
	for _, src := range []struct {
		db *rel.Database
		st *discovery.Structure
	}{{dbA, stA}, {dbB, stB}} {
		p, err := w.Prepare(src.db, src.st)
		if err != nil {
			t.Fatal(err)
		}
		w.Install(p)
		owners[src.db.Name] = discovery.OwnersOf(src.db, src.st)
	}
	// Cross links: AA000i <-> BB000i, plus one duplicate.
	for i := 0; i < 5; i++ {
		repo.AddLink(metadata.Link{
			Type:       metadata.LinkXRef,
			From:       ref("srca", fmt.Sprintf("AA%04d", i)),
			To:         ref("srcb", fmt.Sprintf("BB%04d", i)),
			Confidence: 1.0, Method: "test",
		})
	}
	repo.AddLink(metadata.Link{
		Type:       metadata.LinkDuplicate,
		From:       ref("srca", "AA0000"),
		To:         ref("srcb", "BB0000"),
		Confidence: 0.9, Method: "dup",
	})
	return w, repo
}

func TestObjectViewFields(t *testing.T) {
	w, _ := setup(t)
	v, err := w.Object(ref("srca", "AA0002"), owners["srca"])
	if err != nil {
		t.Fatal(err)
	}
	if v.Fields["label"] != "object 2 label text" {
		t.Errorf("fields = %v", v.Fields)
	}
}

func TestObjectViewAnnotationsDependency(t *testing.T) {
	w, _ := setup(t)
	v, err := w.Object(ref("srca", "AA0002"), owners["srca"])
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Annotations) != 2 {
		t.Fatalf("annotations = %+v", v.Annotations)
	}
	for _, a := range v.Annotations {
		if a.Relation != "note" {
			t.Errorf("annotation relation = %q", a.Relation)
		}
		if a.Fields["note_text"] == "" {
			t.Errorf("annotation fields = %v", a.Fields)
		}
	}
}

func TestObjectViewSameRelationNeighbors(t *testing.T) {
	w, _ := setup(t)
	v, _ := w.Object(ref("srca", "AA0002"), owners["srca"])
	if v.PrevAccession != "AA0001" || v.NextAccession != "AA0003" {
		t.Errorf("neighbors = %q / %q", v.PrevAccession, v.NextAccession)
	}
	first, _ := w.Object(ref("srca", "AA0000"), owners["srca"])
	if first.PrevAccession != "" {
		t.Errorf("first object prev = %q", first.PrevAccession)
	}
	last, _ := w.Object(ref("srca", "AA0004"), owners["srca"])
	if last.NextAccession != "" {
		t.Errorf("last object next = %q", last.NextAccession)
	}
}

func TestObjectViewLinksAndDuplicates(t *testing.T) {
	w, _ := setup(t)
	v, _ := w.Object(ref("srca", "AA0000"), owners["srca"])
	if len(v.Linked) != 1 || v.Linked[0].Type != metadata.LinkXRef {
		t.Errorf("linked = %+v", v.Linked)
	}
	if len(v.Duplicates) != 1 {
		t.Errorf("duplicates = %+v", v.Duplicates)
	}
}

func TestObjectErrors(t *testing.T) {
	w, _ := setup(t)
	if _, err := w.Object(ref("nosrc", "X"), owners["nosrc"]); err == nil {
		t.Error("unknown source should error")
	}
	if _, err := w.Object(ref("srca", "NOPE"), owners["srca"]); err == nil {
		t.Error("unknown accession should error")
	}
}

func TestObjects(t *testing.T) {
	w, _ := setup(t)
	objs := w.Objects("srca")
	if len(objs) != 5 || objs[0].Accession != "AA0000" {
		t.Errorf("objects = %v", objs)
	}
	if w.Objects("nope") != nil {
		t.Error("unknown source should return nil")
	}
}

func TestCrawl(t *testing.T) {
	w, _ := setup(t)
	visited := w.Crawl(ref("srca", "AA0000"), 2)
	// Depth 2 from AA0000: itself, BB0000 (xref+dup), and nothing else
	// (BB0000 only links back).
	if len(visited) != 2 {
		t.Errorf("crawl = %v", visited)
	}
	if visited[0].Accession != "AA0000" {
		t.Errorf("crawl order = %v", visited)
	}
}

func TestCrawlChain(t *testing.T) {
	repo := metadata.NewRepo()
	w := New(repo)
	// Chain a-b-c-d; crawl depth 2 from a reaches a,b,c but not d.
	mk := func(a, b string) metadata.Link {
		return metadata.Link{Type: metadata.LinkXRef,
			From: ref("s", a), To: ref("s", b), Confidence: 1}
	}
	repo.AddLink(mk("a", "b"))
	repo.AddLink(mk("b", "c"))
	repo.AddLink(mk("c", "d"))
	visited := w.Crawl(ref("s", "a"), 2)
	if len(visited) != 3 {
		t.Errorf("crawl = %v", visited)
	}
}

func TestPathRankDirect(t *testing.T) {
	w, _ := setup(t)
	r := w.PathRank(ref("srca", "AA0000"), ref("srcb", "BB0000"), 3)
	// Two direct paths: xref (conf 1.0) and duplicate (conf 0.9).
	if r.Paths != 2 {
		t.Errorf("paths = %d", r.Paths)
	}
	if r.ShortestLen != 1 {
		t.Errorf("shortest = %d", r.ShortestLen)
	}
	want := 1.0 + 0.9
	if r.Score != want {
		t.Errorf("score = %v want %v", r.Score, want)
	}
}

func TestPathRankUnconnected(t *testing.T) {
	w, _ := setup(t)
	r := w.PathRank(ref("srca", "AA0001"), ref("srcb", "BB0003"), 3)
	if r.Paths != 0 || r.Score != 0 || r.ShortestLen != 0 {
		t.Errorf("unconnected rank = %+v", r)
	}
}

func TestPathRankLongerPathsScoreLess(t *testing.T) {
	repo := metadata.NewRepo()
	w := New(repo)
	mk := func(a, b string) metadata.Link {
		return metadata.Link{Type: metadata.LinkXRef, From: ref("s", a), To: ref("s", b), Confidence: 1}
	}
	// direct: a-b. indirect: a-x-y-b.
	repo.AddLink(mk("a", "b"))
	repo.AddLink(mk("a", "x"))
	repo.AddLink(mk("x", "y"))
	repo.AddLink(mk("y", "b"))
	r := w.PathRank(ref("s", "a"), ref("s", "b"), 3)
	if r.Paths != 2 {
		t.Errorf("paths = %d", r.Paths)
	}
	// Score = 1/1 + 1/3.
	if r.Score <= 1.0 || r.Score >= 1.5 {
		t.Errorf("score = %v", r.Score)
	}
	if r.ShortestLen != 1 {
		t.Errorf("shortest = %d", r.ShortestLen)
	}
}

func TestRankRelated(t *testing.T) {
	w, _ := setup(t)
	related := w.RankRelated(ref("srca", "AA0000"), 2, 10)
	if len(related) != 1 {
		t.Fatalf("related = %v", related)
	}
	if related[0].Ref.Accession != "BB0000" {
		t.Errorf("top related = %v", related[0])
	}
	// Two parallel paths (xref + duplicate) -> Paths == 2.
	if related[0].Paths != 2 {
		t.Errorf("paths = %d", related[0].Paths)
	}
}

func TestRankRelatedOrdersByConnectionStrength(t *testing.T) {
	repo := metadata.NewRepo()
	w := New(repo)
	mk := func(a, b string, conf float64) metadata.Link {
		return metadata.Link{Type: metadata.LinkXRef, From: ref("s", a), To: ref("s", b), Confidence: conf}
	}
	repo.AddLink(mk("start", "weak", 0.3))
	repo.AddLink(mk("start", "strong", 0.95))
	related := w.RankRelated(ref("s", "start"), 2, 10)
	if len(related) != 2 {
		t.Fatalf("related = %v", related)
	}
	if related[0].Ref.Accession != "strong" {
		t.Errorf("order = %v", related)
	}
}

func TestPrepareValidation(t *testing.T) {
	w := New(metadata.NewRepo())
	db := rel.NewDatabase("x")
	if _, err := w.Prepare(db, nil); err == nil {
		t.Error("nil structure should be rejected")
	}
	if _, err := w.Prepare(db, &discovery.Structure{}); err == nil {
		t.Error("empty primary should be rejected")
	}
}

func TestRemovedLinkInvisibleInBrowse(t *testing.T) {
	w, repo := setup(t)
	l := metadata.Link{
		Type:       metadata.LinkXRef,
		From:       ref("srca", "AA0000"),
		To:         ref("srcb", "BB0000"),
		Confidence: 1.0, Method: "test",
	}
	repo.RemoveLink(l)
	v, _ := w.Object(ref("srca", "AA0000"), owners["srca"])
	if len(v.Linked) != 0 {
		t.Errorf("removed link still browsable: %+v", v.Linked)
	}
}

func TestWebStats(t *testing.T) {
	w, _ := setup(t)
	st := w.Stats()
	if st.Objects != 10 {
		t.Errorf("objects = %d want 10", st.Objects)
	}
	// 5 xref pairs + 1 duplicate: 10 linked objects, 6 links.
	if st.Links != 6 {
		t.Errorf("links = %d", st.Links)
	}
	if st.LinkedObjects != 10 {
		t.Errorf("linked objects = %d", st.LinkedObjects)
	}
	// Each AA000i~BB000i pair is its own component: 5 components of size 2.
	if st.Components != 5 {
		t.Errorf("components = %d", st.Components)
	}
	if st.LargestComponent != 2 {
		t.Errorf("largest = %d", st.LargestComponent)
	}
	if st.MeanDegree <= 1 {
		t.Errorf("mean degree = %v", st.MeanDegree)
	}
	if st.DegreeHistogram[1] == 0 {
		t.Errorf("degree histogram = %v", st.DegreeHistogram)
	}
}

func TestWebStatsEmpty(t *testing.T) {
	w := New(metadata.NewRepo())
	st := w.Stats()
	if st.Objects != 0 || st.Links != 0 || st.Components != 0 {
		t.Errorf("empty stats = %+v", st)
	}
}
