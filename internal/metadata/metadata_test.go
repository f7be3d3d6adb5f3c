package metadata

import (
	"fmt"
	"testing"
	"testing/quick"
)

func ref(src, acc string) ObjectRef {
	return ObjectRef{Source: src, Relation: "main", Accession: acc}
}

func TestRegisterAndLookupSource(t *testing.T) {
	r := NewRepo()
	r.RegisterSource(&SourceMeta{Name: "swissprot", TupleCount: 100})
	r.RegisterSource(&SourceMeta{Name: "pdb", TupleCount: 50})
	if got := r.Source("SwissProt"); got == nil || got.TupleCount != 100 {
		t.Errorf("lookup = %+v", got)
	}
	ss := r.Sources()
	if len(ss) != 2 || ss[0].Name != "swissprot" || ss[0].Seq != 1 || ss[1].Seq != 2 {
		t.Errorf("sources = %+v", ss)
	}
}

func TestRegisterReplacePreservesSeq(t *testing.T) {
	r := NewRepo()
	r.RegisterSource(&SourceMeta{Name: "a"})
	r.RegisterSource(&SourceMeta{Name: "b"})
	r.RegisterSource(&SourceMeta{Name: "a", TupleCount: 7})
	if got := r.Source("a"); got.Seq != 1 || got.TupleCount != 7 {
		t.Errorf("replaced = %+v", got)
	}
	if len(r.Sources()) != 2 {
		t.Errorf("sources = %d", len(r.Sources()))
	}
}

func TestAddLinkDeduplicates(t *testing.T) {
	r := NewRepo()
	l := Link{Type: LinkXRef, From: ref("a", "X1"), To: ref("b", "Y1"), Confidence: 0.8}
	if !r.AddLink(l) {
		t.Fatal("first add should store")
	}
	if r.AddLink(l) {
		t.Error("duplicate add should not store")
	}
	// Reversed endpoints are the same undirected link.
	rev := Link{Type: LinkXRef, From: ref("b", "Y1"), To: ref("a", "X1"), Confidence: 0.5}
	if r.AddLink(rev) {
		t.Error("reversed duplicate should not store")
	}
	if n := r.LinkCount(LinkXRef); n != 1 {
		t.Errorf("count = %d", n)
	}
}

func TestAddLinkKeepsHigherConfidence(t *testing.T) {
	r := NewRepo()
	r.AddLink(Link{Type: LinkText, From: ref("a", "1"), To: ref("b", "2"), Confidence: 0.4, Method: "weak"})
	r.AddLink(Link{Type: LinkText, From: ref("a", "1"), To: ref("b", "2"), Confidence: 0.9, Method: "strong"})
	ls := r.Links(LinkText)
	if len(ls) != 1 || ls[0].Confidence != 0.9 || ls[0].Method != "strong" {
		t.Errorf("links = %+v", ls)
	}
}

func TestAddLinkTrackedReportsUpgrades(t *testing.T) {
	r := NewRepo()
	orig := Link{Type: LinkText, From: ref("a", "1"), To: ref("b", "2"), Confidence: 0.4, Method: "weak"}
	if stored, _, _ := r.AddLinkTracked(orig); !stored {
		t.Fatal("first add should store")
	}
	stored, upgraded, prev := r.AddLinkTracked(Link{
		Type: LinkText, From: ref("a", "1"), To: ref("b", "2"), Confidence: 0.9, Method: "strong",
	})
	if stored || !upgraded {
		t.Fatalf("stored=%v upgraded=%v", stored, upgraded)
	}
	if prev.Confidence != 0.4 || prev.Method != "weak" {
		t.Errorf("prev = %+v", prev)
	}
	// A lower-confidence re-add neither stores nor upgrades.
	if s, u, _ := r.AddLinkTracked(orig); s || u {
		t.Errorf("low-confidence re-add: stored=%v upgraded=%v", s, u)
	}
	ls := r.Links(LinkText)
	if len(ls) != 1 || ls[0].Confidence != 0.9 || ls[0].Method != "strong" {
		t.Errorf("after upgrade: %+v", ls)
	}
}

// NewOrBetter keeps exactly the links AddLink would store or upgrade
// with: new pairs and higher confidences, not stored pairs at or below
// their confidence, reversed or not, nor removed pairs.
func TestNewOrBetterIsWhatAddLinkActsOn(t *testing.T) {
	r := NewRepo()
	stored := Link{Type: LinkOntology, From: ref("a", "1"), To: ref("b", "2"), Confidence: 0.5}
	removed := Link{Type: LinkOntology, From: ref("a", "3"), To: ref("b", "4"), Confidence: 0.5}
	r.AddLink(stored)
	r.AddLink(removed)
	r.RemoveLink(removed)
	reversed := Link{Type: LinkOntology, From: stored.To, To: stored.From, Confidence: 0.5}
	better := stored
	better.Confidence = 0.75
	fresh := Link{Type: LinkOntology, From: ref("a", "5"), To: ref("b", "6"), Confidence: 0.1}
	otherType := stored
	otherType.Type = LinkText
	got := r.NewOrBetter([]Link{stored, reversed, removed, better, fresh, otherType})
	if len(got) != 3 || got[0] != better || got[1] != fresh || got[2] != otherType {
		t.Fatalf("NewOrBetter = %+v, want the better, fresh and other-type links", got)
	}
	for _, l := range []Link{stored, reversed, removed} {
		if stored, upgraded, _ := r.AddLinkTracked(l); stored || upgraded {
			t.Errorf("AddLink acted on %+v, which NewOrBetter left out", l)
		}
	}
}

func TestDifferentTypesAreSeparateLinks(t *testing.T) {
	r := NewRepo()
	r.AddLink(Link{Type: LinkXRef, From: ref("a", "1"), To: ref("b", "2"), Confidence: 1})
	r.AddLink(Link{Type: LinkDuplicate, From: ref("a", "1"), To: ref("b", "2"), Confidence: 1})
	if n := r.LinkCount(-1); n != 2 {
		t.Errorf("count = %d", n)
	}
}

func TestLinksOf(t *testing.T) {
	r := NewRepo()
	r.AddLink(Link{Type: LinkXRef, From: ref("a", "1"), To: ref("b", "2"), Confidence: 1})
	r.AddLink(Link{Type: LinkXRef, From: ref("a", "1"), To: ref("c", "3"), Confidence: 1})
	r.AddLink(Link{Type: LinkXRef, From: ref("b", "9"), To: ref("c", "3"), Confidence: 1})
	if n := len(r.LinksOf(ref("a", "1"))); n != 2 {
		t.Errorf("a:1 links = %d", n)
	}
	if n := len(r.LinksOf(ref("c", "3"))); n != 2 {
		t.Errorf("c:3 links = %d", n)
	}
	if n := len(r.LinksOf(ref("zz", "nope"))); n != 0 {
		t.Errorf("missing object links = %d", n)
	}
}

func TestRemoveLinkFeedback(t *testing.T) {
	r := NewRepo()
	l := Link{Type: LinkText, From: ref("a", "1"), To: ref("b", "2"), Confidence: 0.5}
	r.AddLink(l)
	if !r.RemoveLink(l) {
		t.Fatal("remove should find the link")
	}
	if n := r.LinkCount(-1); n != 0 {
		t.Errorf("count after removal = %d", n)
	}
	if len(r.LinksOf(ref("a", "1"))) != 0 {
		t.Error("removed link still visible via object index")
	}
	// §6.2: a re-run of discovery must not resurrect it.
	if r.AddLink(l) {
		t.Error("removed link must not be re-addable")
	}
	if r.Stats().RemovedLinks != 1 {
		t.Errorf("stats removed = %d", r.Stats().RemovedLinks)
	}
}

func TestRemoveMissingLink(t *testing.T) {
	r := NewRepo()
	l := Link{Type: LinkText, From: ref("a", "1"), To: ref("b", "2")}
	if r.RemoveLink(l) {
		t.Error("removing a missing link should report false")
	}
	// ...but still block future additions.
	if r.AddLink(l) {
		t.Error("pre-emptively removed link must not be addable")
	}
}

func TestChangeThresholdPolicy(t *testing.T) {
	r := NewRepo()
	r.RegisterSource(&SourceMeta{Name: "src", TupleCount: 100})
	r.RecordChanges("src", 5)
	if r.NeedsReanalysis("src", 0.10) {
		t.Error("5% churn should not trip a 10% threshold")
	}
	r.RecordChanges("src", 6)
	if !r.NeedsReanalysis("src", 0.10) {
		t.Error("11% churn should trip a 10% threshold")
	}
	r.ResetChanges("src")
	if r.NeedsReanalysis("src", 0.10) {
		t.Error("reset should clear the counter")
	}
}

func TestChangeThresholdUnknownSource(t *testing.T) {
	r := NewRepo()
	if r.NeedsReanalysis("nope", 0.1) {
		t.Error("unknown source should not need re-analysis")
	}
	if r.RecordChanges("nope", 3) != 0 {
		t.Error("RecordChanges on unknown source should return 0")
	}
}

func TestStats(t *testing.T) {
	r := NewRepo()
	r.RegisterSource(&SourceMeta{Name: "a"})
	r.AddLink(Link{Type: LinkXRef, From: ref("a", "1"), To: ref("b", "2"), Confidence: 1})
	r.AddLink(Link{Type: LinkDuplicate, From: ref("a", "1"), To: ref("b", "3"), Confidence: 1})
	s := r.Stats()
	if s.Sources != 1 || s.Links != 2 {
		t.Errorf("stats = %+v", s)
	}
	if s.LinksByType["xref"] != 1 || s.LinksByType["duplicate"] != 1 {
		t.Errorf("by type = %v", s.LinksByType)
	}
}

func TestSortLinksDeterministic(t *testing.T) {
	ls := []Link{
		{Type: LinkText, From: ref("b", "2"), To: ref("c", "1")},
		{Type: LinkXRef, From: ref("a", "1"), To: ref("b", "2")},
		{Type: LinkXRef, From: ref("a", "0"), To: ref("b", "9")},
	}
	SortLinks(ls)
	if ls[0].Type != LinkXRef || ls[0].From.Accession != "0" {
		t.Errorf("sorted = %+v", ls)
	}
	if ls[2].Type != LinkText {
		t.Errorf("text link should sort last: %+v", ls)
	}
}

// Property: adding n distinct links yields count n, and each is findable
// from both endpoints.
func TestLinkIndexConsistency(t *testing.T) {
	f := func(n uint8) bool {
		r := NewRepo()
		for i := 0; i < int(n); i++ {
			r.AddLink(Link{
				Type: LinkXRef,
				From: ref("a", fmt.Sprintf("x%d", i)),
				To:   ref("b", fmt.Sprintf("y%d", i)),
			})
		}
		if r.LinkCount(-1) != int(n) {
			return false
		}
		for i := 0; i < int(n); i++ {
			if len(r.LinksOf(ref("a", fmt.Sprintf("x%d", i)))) != 1 {
				return false
			}
			if len(r.LinksOf(ref("b", fmt.Sprintf("y%d", i)))) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	r := NewRepo()
	r.RegisterSource(&SourceMeta{Name: "src", TupleCount: 1000})
	done := make(chan bool)
	for g := 0; g < 4; g++ {
		go func(g int) {
			for i := 0; i < 100; i++ {
				r.AddLink(Link{
					Type: LinkXRef,
					From: ref("a", fmt.Sprintf("g%d-%d", g, i)),
					To:   ref("b", fmt.Sprintf("g%d-%d", g, i)),
				})
				r.LinksOf(ref("a", "g0-0"))
				r.RecordChanges("src", 1)
			}
			done <- true
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if n := r.LinkCount(-1); n != 400 {
		t.Errorf("concurrent adds = %d want 400", n)
	}
}
