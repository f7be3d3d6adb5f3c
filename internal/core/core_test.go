package core

import (
	"context"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/eval"
	"repro/internal/linkdisc"
	"repro/internal/metadata"
	"repro/internal/rel"
	"repro/internal/search"
)

// buildSystem integrates the full synthetic corpus.
func buildSystem(t *testing.T, cfg datagen.Config, opts Options) (*System, *datagen.Corpus) {
	t.Helper()
	corpus := datagen.Generate(cfg)
	sys := New(opts)
	for _, src := range corpus.Sources {
		if _, err := sys.AddSource(src); err != nil {
			t.Fatalf("AddSource(%s): %v", src.Name, err)
		}
	}
	return sys, corpus
}

func defaultCfg() datagen.Config {
	return datagen.Config{Seed: 11, Proteins: 24}
}

func defaultOpts() Options {
	return Options{OntologySources: []string{"go"}}
}

func TestPipelinePrimaryRelationsMatchGold(t *testing.T) {
	// The 400-protein corpus is what aladind -proteins 400 integrates: it
	// runs past the 360 codes of datagen's first PDB-code cycle, where a
	// repeated accession once left pdb without a primary relation.
	// Sequence and text links are off there: they cost quadratic time and
	// play no part in structure discovery.
	large := defaultOpts()
	large.Links = linkdisc.Options{DisableSequenceLinks: true, DisableTextLinks: true}
	for _, tc := range []struct {
		name string
		cfg  datagen.Config
		opts Options
	}{
		{"default", defaultCfg(), defaultOpts()},
		{"400-proteins", datagen.Config{Seed: 1, Proteins: 400}, large},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, corpus := buildSystem(t, tc.cfg, tc.opts)
			for _, m := range sys.Repo.Sources() {
				name := strings.ToLower(m.Name)
				if got, want := strings.ToLower(m.Structure.Primary), corpus.Gold.Primary[name]; got != want {
					t.Errorf("%s primary = %q want %q (scores %v)", name, got, want, m.Structure.PrimaryScores)
				}
				if got, want := strings.ToLower(m.Structure.PrimaryAccession), corpus.Gold.Accession[name]; got != want {
					t.Errorf("%s accession = %q want %q", name, got, want)
				}
			}
		})
	}
}

func TestPipelineXRefPrecisionRecall(t *testing.T) {
	sys, corpus := buildSystem(t, defaultCfg(), defaultOpts())
	all := sys.Repo.AllLinks()
	gold := append([]datagen.GoldLink{}, corpus.Gold.XRefs...)
	gold = append(gold, corpus.Gold.TermXRefs...)
	pr := eval.CompareLinks(all, metadata.LinkXRef, gold)
	if pr.Recall() < 0.9 {
		t.Errorf("xref recall = %v (%+v)", pr.Recall(), pr)
	}
	if pr.Precision() < 0.9 {
		t.Errorf("xref precision = %v (%+v)", pr.Precision(), pr)
	}
}

func TestPipelineSequenceLinks(t *testing.T) {
	sys, corpus := buildSystem(t, defaultCfg(), defaultOpts())
	pr := eval.CompareLinks(sys.Repo.AllLinks(), metadata.LinkSequence, corpus.Gold.Homologs)
	// Zero mutation: every homolog pair must be found exactly.
	if pr.Recall() < 0.95 {
		t.Errorf("homolog recall = %v (%+v)", pr.Recall(), pr)
	}
}

func TestPipelineDuplicates(t *testing.T) {
	sys, corpus := buildSystem(t, defaultCfg(), defaultOpts())
	pr := eval.CompareLinks(sys.Repo.AllLinks(), metadata.LinkDuplicate, corpus.Gold.Duplicates)
	if pr.Recall() < 0.8 {
		t.Errorf("duplicate recall = %v (%+v)", pr.Recall(), pr)
	}
	if pr.Precision() < 0.8 {
		t.Errorf("duplicate precision = %v (%+v)", pr.Precision(), pr)
	}
}

func TestPipelineOntologyLinksDerived(t *testing.T) {
	sys, _ := buildSystem(t, defaultCfg(), defaultOpts())
	if n := sys.Repo.LinkCount(metadata.LinkOntology); n == 0 {
		t.Error("no derived ontology links")
	}
}

func TestDuplicateSourceRejected(t *testing.T) {
	sys, corpus := buildSystem(t, defaultCfg(), defaultOpts())
	if _, err := sys.AddSource(corpus.Sources[0]); err == nil {
		t.Error("re-adding a source should fail")
	}
}

func TestQueryCrossSource(t *testing.T) {
	sys, _ := buildSystem(t, defaultCfg(), defaultOpts())
	res, err := sys.Query(`
		SELECT COUNT(*) FROM swissprot_protein`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.Rows[0][0].AsInt(); n != 24 {
		t.Errorf("protein count = %d", n)
	}
	// Cross-source join through the warehouse.
	res, err = sys.Query(`
		SELECT p.accession, s.pdb_code
		FROM swissprot_protein p
		JOIN pdb_structure s ON s.structure_id = p.protein_id
		LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("join rows = %d", len(res.Rows))
	}
}

func TestSearchAccessModes(t *testing.T) {
	sys, _ := buildSystem(t, defaultCfg(), defaultOpts())
	rs := sys.Search("hemoglobin", search.Filter{}, 5)
	if len(rs) == 0 {
		t.Fatal("no search results")
	}
	// Focused search: only swissprot.
	rs = sys.Search("hemoglobin", search.Filter{Sources: []string{"swissprot"}}, 10)
	for _, r := range rs {
		if !strings.EqualFold(r.Document.Object.Source, "swissprot") {
			t.Errorf("source filter leak: %v", r.Document.Object)
		}
	}
}

func TestBrowseObjectView(t *testing.T) {
	sys, _ := buildSystem(t, defaultCfg(), defaultOpts())
	objs := sys.Objects("swissprot")
	if len(objs) != 24 {
		t.Fatalf("objects = %d", len(objs))
	}
	v, err := sys.Browse(objs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Fields) == 0 {
		t.Error("empty fields")
	}
	if len(v.Annotations) == 0 {
		t.Error("no secondary-object annotations")
	}
	if len(v.Linked) == 0 {
		t.Error("no links in browse view")
	}
}

func TestRelatedRanking(t *testing.T) {
	sys, corpus := buildSystem(t, defaultCfg(), defaultOpts())
	start := metadata.ObjectRef{
		Source: "swissprot", Relation: "protein",
		Accession: "P10000",
	}
	related := sys.Related(start, 2, 5)
	if len(related) == 0 {
		t.Fatal("no related objects")
	}
	// The PDB structure of the same protein should be strongly related.
	found := false
	for _, r := range related {
		for _, g := range corpus.Gold.XRefs {
			if g.FromAccession == "P10000" && r.Ref.Accession == g.ToAccession {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("gold xref target not among related: %v", related)
	}
}

func TestUserFeedbackRemovesLink(t *testing.T) {
	sys, _ := buildSystem(t, defaultCfg(), defaultOpts())
	links := sys.Repo.Links(metadata.LinkXRef)
	if len(links) == 0 {
		t.Fatal("no links")
	}
	target := links[0]
	if ok, err := sys.RemoveLinkFeedback(target); err != nil || !ok {
		t.Fatalf("remove failed (ok=%v, err=%v)", ok, err)
	}
	if sys.Repo.LinkCount(metadata.LinkXRef) != len(links)-1 {
		t.Error("link count unchanged")
	}
	// §6.2: re-analysis must not resurrect the removed link.
	if _, err := sys.Reanalyze(target.From.Source); err != nil {
		t.Fatal(err)
	}
	for _, l := range sys.Repo.Links(metadata.LinkXRef) {
		if l.From == target.From && l.To == target.To {
			t.Error("removed link resurrected by re-analysis")
		}
	}
}

func TestChangeThresholdTriggersReanalysis(t *testing.T) {
	sys, _ := buildSystem(t, defaultCfg(), defaultOpts())
	total := sys.Repo.Source("swissprot").TupleCount
	if sys.RecordChanges("swissprot", total/20) {
		t.Error("5% churn should not trigger at 10% threshold")
	}
	if !sys.RecordChanges("swissprot", total/10) {
		t.Error("15% cumulative churn should trigger")
	}
	if _, err := sys.Reanalyze("swissprot"); err != nil {
		t.Fatal(err)
	}
	if sys.RecordChanges("swissprot", 0) {
		t.Error("counter should reset after re-analysis")
	}
}

func TestReanalyzeUnknownSource(t *testing.T) {
	sys := New(defaultOpts())
	if _, err := sys.Reanalyze("nope"); err == nil {
		t.Error("expected error")
	}
}

func TestNoPrimarySourceFails(t *testing.T) {
	sys := New(defaultOpts())
	// A digits-only source has no accession candidates (§4.2), so no
	// primary relation can be found.
	db := rel.NewDatabase("digits")
	r := db.Create("t", rel.TextSchema("id", "n"))
	for i := 0; i < 5; i++ {
		r.AppendRaw(itoa(i), itoa(i*7))
	}
	if _, err := sys.AddSource(db); err == nil {
		t.Error("source without primary relation should fail")
	}
}

func itoa(i int) string { return strconv.Itoa(i) }

func TestAddReportTimingsAndStats(t *testing.T) {
	sys := New(defaultOpts())
	corpus := datagen.Generate(defaultCfg())
	rep, err := sys.AddSource(corpus.Sources[0])
	if err != nil {
		t.Fatal(err)
	}
	var steps []string
	for _, st := range rep.Timings {
		steps = append(steps, st.Step)
	}
	if want := []string{"profile", "discover-structure", "link-discovery", "duplicate-detection",
		"prepare-publish", "register-and-index"}; !reflect.DeepEqual(steps, want) {
		t.Errorf("steps = %v, want %v", steps, want)
	}
	if rep.Duration() <= 0 {
		t.Error("zero duration")
	}
	rep2, err := sys.AddSource(corpus.Sources[1])
	if err != nil {
		t.Fatal(err)
	}
	if rep2.LinksAdded["xref"] == 0 && rep2.LinksAdded["sequence"] == 0 {
		t.Errorf("second source should link to first: %v", rep2.LinksAdded)
	}
}

func TestIncrementalLinkCounts(t *testing.T) {
	// Links accumulate monotonically as sources are added.
	corpus := datagen.Generate(defaultCfg())
	sys := New(defaultOpts())
	prev := 0
	for _, src := range corpus.Sources {
		if _, err := sys.AddSource(src); err != nil {
			t.Fatal(err)
		}
		now := sys.Repo.LinkCount(-1)
		if now < prev {
			t.Errorf("link count shrank: %d -> %d", prev, now)
		}
		prev = now
	}
	if prev == 0 {
		t.Error("no links after full integration")
	}
}

func TestWebStatsAfterIntegration(t *testing.T) {
	sys, _ := buildSystem(t, defaultCfg(), defaultOpts())
	ws := sys.WebStats()
	if ws.Objects == 0 || ws.Links == 0 {
		t.Fatalf("stats = %+v", ws)
	}
	if ws.LinkedObjects > ws.Objects {
		t.Errorf("linked (%d) exceeds total (%d)", ws.LinkedObjects, ws.Objects)
	}
	if ws.LargestComponent < 4 {
		// Each protein world-entity links swissprot/pdb/pir/genbank/omim
		// variants together.
		t.Errorf("largest component = %d", ws.LargestComponent)
	}
}

func TestConflictsAPI(t *testing.T) {
	sys, corpus := buildSystem(t, datagen.Config{Seed: 11, Proteins: 24,
		Noise: datagen.Noise{DuplicateFieldNoise: 0.9}}, defaultOpts())
	g := corpus.Gold.Duplicates[0]
	a := metadata.ObjectRef{Source: g.FromSource, Relation: "protein", Accession: g.FromAccession}
	b := metadata.ObjectRef{Source: g.ToSource, Relation: "pirentry", Accession: g.ToAccession}
	conflicts, err := sys.Conflicts(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(conflicts) == 0 {
		t.Error("no conflicts found despite 90% field noise")
	}
	if _, err := sys.Conflicts(a, metadata.ObjectRef{Source: "pir", Accession: "NOPE"}); err == nil {
		t.Error("missing object should error")
	}
}

// TestPrepareCommitSplit exercises the snapshot-then-commit API directly:
// readers between Prepare and Commit see the old state, Commit publishes
// atomically, and Abort discards a prepared addition completely.
func TestPrepareCommitSplit(t *testing.T) {
	corpus := datagen.Generate(defaultCfg())
	sys := New(defaultOpts())
	if _, err := sys.AddSource(corpus.Source("swissprot")); err != nil {
		t.Fatal(err)
	}

	p, err := sys.PrepareAdd(context.Background(), corpus.Source("pir"))
	if err != nil {
		t.Fatal(err)
	}
	// Not yet committed: no access mode sees pir.
	if got := len(sys.Sources()); got != 1 {
		t.Fatalf("prepared-but-uncommitted source visible: %d sources", got)
	}
	if _, err := sys.Query("SELECT accession FROM pir_entry"); err == nil {
		t.Error("warehouse sees uncommitted source")
	}
	rep, err := sys.Commit(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Structure.Primary == "" {
		t.Error("commit report missing structure")
	}
	if got := len(sys.Sources()); got != 2 {
		t.Fatalf("after commit: %d sources, want 2", got)
	}
	if _, err := sys.Commit(p); err == nil {
		t.Error("double commit must fail")
	}

	// Abort: prepared state is discarded, and the source can be prepared
	// again afterwards (the dup index holds no leftover records).
	p2, err := sys.PrepareAdd(context.Background(), corpus.Source("pdb"))
	if err != nil {
		t.Fatal(err)
	}
	sys.Abort(p2)
	if got := len(sys.Sources()); got != 2 {
		t.Fatalf("aborted source visible: %d sources", got)
	}
	if _, err := sys.AddSource(corpus.Source("pdb")); err != nil {
		t.Fatalf("add after abort: %v", err)
	}
}
