package ontology

import (
	"testing"
	"testing/quick"

	"repro/internal/rel"
)

// sampleHierarchy builds:
//
//	        root
//	       /    \
//	   binding  activity
//	    /   \       \
//	 dna    rna    catalytic
//	 /
//	promoter
func sampleHierarchy() *Hierarchy {
	h := New()
	h.AddTerm("GO:1", "root")
	h.AddTerm("GO:2", "binding")
	h.AddTerm("GO:3", "activity")
	h.AddTerm("GO:4", "dna binding")
	h.AddTerm("GO:5", "rna binding")
	h.AddTerm("GO:6", "catalytic activity")
	h.AddTerm("GO:7", "promoter binding")
	h.AddIsA("GO:2", "GO:1")
	h.AddIsA("GO:3", "GO:1")
	h.AddIsA("GO:4", "GO:2")
	h.AddIsA("GO:5", "GO:2")
	h.AddIsA("GO:6", "GO:3")
	h.AddIsA("GO:7", "GO:4")
	return h
}

func TestAncestorsDescendants(t *testing.T) {
	h := sampleHierarchy()
	anc := h.Ancestors("GO:7")
	want := []string{"GO:1", "GO:2", "GO:4"}
	if len(anc) != len(want) {
		t.Fatalf("ancestors = %v", anc)
	}
	for i := range want {
		if anc[i] != want[i] {
			t.Errorf("ancestors = %v want %v", anc, want)
		}
	}
	// GO:2's descendants are the terms with GO:2 among their ancestors.
	var desc []string
	for _, acc := range []string{"GO:1", "GO:2", "GO:3", "GO:4", "GO:5", "GO:6", "GO:7"} {
		for _, a := range h.Ancestors(acc) {
			if a == "GO:2" {
				desc = append(desc, acc)
			}
		}
	}
	if len(desc) != 3 {
		t.Errorf("descendants = %v", desc)
	}
	if len(h.Ancestors("GO:1")) != 0 {
		t.Error("root has ancestors")
	}
}

func TestRootsAndDepth(t *testing.T) {
	h := sampleHierarchy()
	roots := h.Roots()
	if len(roots) != 1 || roots[0] != "GO:1" {
		t.Fatalf("roots = %v", roots)
	}
	// The root distances LCA and Similarity rank by.
	h.computeDepths()
	cases := map[string]int{"GO:1": 0, "GO:2": 1, "GO:4": 2, "GO:7": 3}
	for acc, want := range cases {
		if got := h.depth[acc]; got != want {
			t.Errorf("depth(%s) = %d want %d", acc, got, want)
		}
	}
}

func TestLCA(t *testing.T) {
	h := sampleHierarchy()
	cases := []struct{ a, b, want string }{
		{"GO:4", "GO:5", "GO:2"}, // siblings -> parent
		{"GO:7", "GO:5", "GO:2"}, // nephew/uncle -> binding
		{"GO:4", "GO:6", "GO:1"}, // across branches -> root
		{"GO:7", "GO:4", "GO:4"}, // ancestor relationship -> the ancestor
		{"GO:4", "GO:4", "GO:4"}, // identity
	}
	for _, c := range cases {
		if got := h.LCA(c.a, c.b); got != c.want {
			t.Errorf("LCA(%s,%s) = %q want %q", c.a, c.b, got, c.want)
		}
	}
	if h.LCA("GO:4", "GO:999") != "" {
		t.Error("unknown term LCA should be empty")
	}
}

func TestSimilarity(t *testing.T) {
	h := sampleHierarchy()
	if s := h.Similarity("GO:4", "GO:4"); s != 1 {
		t.Errorf("self similarity = %v", s)
	}
	sib := h.Similarity("GO:4", "GO:5")  // lca depth 1, depths 2+2 -> 0.5
	far := h.Similarity("GO:4", "GO:6")  // lca depth 0 -> 0
	near := h.Similarity("GO:7", "GO:4") // lca GO:4 depth 2, depths 3+2 -> 0.8
	if sib != 0.5 {
		t.Errorf("sibling similarity = %v", sib)
	}
	if far != 0 {
		t.Errorf("cross-branch similarity = %v", far)
	}
	if near != 0.8 {
		t.Errorf("ancestor similarity = %v", near)
	}
	if !(near > sib && sib > far) {
		t.Error("similarity ordering violated")
	}
}

func TestFromRelationsWithSurrogateIDs(t *testing.T) {
	term := rel.NewRelation("term", rel.TextSchema("term_id", "go_acc", "term_name"))
	term.AppendRaw("1", "GO:0001", "root")
	term.AppendRaw("2", "GO:0002", "child a")
	term.AppendRaw("3", "GO:0003", "child b")
	isa := rel.NewRelation("term_isa", rel.TextSchema("isa_id", "term_id", "parent_term_id"))
	isa.AppendRaw("700", "2", "1")
	isa.AppendRaw("701", "3", "1")
	h, err := FromRelations(term, "go_acc", "term_name", isa, "term_id", "parent_term_id", "term_id")
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 3 {
		t.Fatalf("terms = %d", h.Len())
	}
	if anc := h.Ancestors("GO:0002"); len(anc) != 1 || anc[0] != "GO:0001" {
		t.Errorf("ancestors = %v", anc)
	}
	if h.Name("GO:0003") != "child b" {
		t.Errorf("name = %q", h.Name("GO:0003"))
	}
	if s := h.Similarity("GO:0002", "GO:0003"); s != 0 {
		// Both at depth 1, lca root at depth 0 -> 0.
		t.Errorf("sibling-under-root similarity = %v", s)
	}
}

func TestFromRelationsErrors(t *testing.T) {
	term := rel.NewRelation("term", rel.TextSchema("a"))
	if _, err := FromRelations(term, "nope", "", nil, "", "", ""); err == nil {
		t.Error("missing accession column should fail")
	}
	term2 := rel.NewRelation("term", rel.TextSchema("acc"))
	isa := rel.NewRelation("isa", rel.TextSchema("x"))
	if _, err := FromRelations(term2, "acc", "", isa, "child", "parent", ""); err == nil {
		t.Error("missing is_a columns should fail")
	}
}

func TestCycleTermination(t *testing.T) {
	h := New()
	h.AddIsA("A1", "B1")
	h.AddIsA("B1", "A1") // malformed cycle
	// Must terminate and assign depths.
	h.computeDepths()
	if d, ok := h.depth["A1"]; !ok || d < 0 {
		t.Errorf("depth = %d, %v", d, ok)
	}
	_ = h.Ancestors("A1")
	_ = h.LCA("A1", "B1")
}

func TestSelfLoopIgnored(t *testing.T) {
	h := New()
	h.AddIsA("X1", "X1")
	if len(h.Ancestors("X1")) != 0 {
		t.Error("self loop created ancestry")
	}
}

// Property: similarity is symmetric and within [0,1].
func TestSimilaritySymmetry(t *testing.T) {
	h := sampleHierarchy()
	terms := []string{"GO:1", "GO:2", "GO:3", "GO:4", "GO:5", "GO:6", "GO:7"}
	f := func(i, j uint8) bool {
		a := terms[int(i)%len(terms)]
		b := terms[int(j)%len(terms)]
		s1, s2 := h.Similarity(a, b), h.Similarity(b, a)
		return s1 == s2 && s1 >= 0 && s1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
