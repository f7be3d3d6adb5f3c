package aladin

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/metadata"
)

func testCorpus() *datagen.Corpus {
	return datagen.Generate(datagen.Config{Seed: 7, Proteins: 16})
}

func openWith(t *testing.T, corpus *datagen.Corpus, names ...string) *DB {
	t.Helper()
	db, err := Open(WithOntologySources("go"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, n := range names {
		if _, err := db.AddSource(ctx, corpus.Source(n)); err != nil {
			t.Fatalf("AddSource(%s): %v", n, err)
		}
	}
	return db
}

// TestConcurrentServingDuringAddSource hammers every read access mode
// from many goroutines while AddSource integrates a new source, asserting
// (under -race) that no data race exists and that every reader observes
// one of exactly two consistent states: the pre-add snapshot or the
// post-add snapshot.
func TestConcurrentServingDuringAddSource(t *testing.T) {
	corpus := testCorpus()
	db := openWith(t, corpus, "swissprot", "pdb")
	ctx := context.Background()

	before, err := db.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if before.Repo.Sources != 2 {
		t.Fatalf("pre-add sources = %d, want 2", before.Repo.Sources)
	}
	objs, err := db.Objects(ctx, "swissprot")
	if err != nil || len(objs) == 0 {
		t.Fatalf("objects: %v (%d)", err, len(objs))
	}

	const readers = 8
	done := make(chan struct{})
	errCh := make(chan error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				switch i % 4 {
				case 0:
					res, err := db.Query(ctx, "SELECT COUNT(*) FROM swissprot_protein")
					if err != nil {
						errCh <- fmt.Errorf("reader %d: query: %w", r, err)
						return
					}
					if n, _ := res.Rows[0][0].AsInt(); n != 16 {
						errCh <- fmt.Errorf("reader %d: count = %d, want 16", r, n)
						return
					}
				case 1:
					if _, err := db.Search(ctx, "hemoglobin kinase", SearchFilter{}, 5); err != nil {
						errCh <- fmt.Errorf("reader %d: search: %w", r, err)
						return
					}
				case 2:
					if _, err := db.Browse(ctx, objs[i%len(objs)]); err != nil {
						errCh <- fmt.Errorf("reader %d: browse: %w", r, err)
						return
					}
				case 3:
					st, err := db.Stats(ctx)
					if err != nil {
						errCh <- fmt.Errorf("reader %d: stats: %w", r, err)
						return
					}
					// Atomicity: the repo either has the pre-add source
					// count or the post-add one, never anything between.
					if st.Repo.Sources != 2 && st.Repo.Sources != 3 {
						errCh <- fmt.Errorf("reader %d: saw %d sources", r, st.Repo.Sources)
						return
					}
				}
			}
		}(r)
	}

	rep, err := db.AddSource(ctx, corpus.Source("pir"))
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatalf("AddSource under load: %v", err)
	}
	if rep.Structure == nil || rep.Structure.Primary == "" {
		t.Error("report missing discovered structure")
	}
	select {
	case rerr := <-errCh:
		t.Fatal(rerr)
	default:
	}
	after, err := db.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.Repo.Sources != 3 {
		t.Errorf("post-add sources = %d, want 3", after.Repo.Sources)
	}
	if after.Repo.Links <= before.Repo.Links {
		t.Errorf("links did not grow: %d -> %d", before.Repo.Links, after.Repo.Links)
	}
}

// TestCancelAddSourceMidPipelineRestoresState cancels an AddSource while
// the pipeline is running (via a failpoint firing after link discovery)
// and asserts the database equals its pre-call state.
func TestCancelAddSourceMidPipelineRestoresState(t *testing.T) {
	corpus := testCorpus()
	db := openWith(t, corpus, "swissprot")
	ctx := context.Background()

	wantStats, _ := db.Stats(ctx)
	wantSources, _ := db.Sources(ctx)
	wantLinks, err := db.Query(ctx, "SELECT COUNT(*) FROM swissprot_protein")
	if err != nil {
		t.Fatal(err)
	}

	for _, stage := range []string{"link-discovery", "duplicate-detection"} {
		cctx, cancel := context.WithCancel(context.Background())
		failAt := stage
		db.sys.SetFailpoint(func(s string) error {
			if s == failAt {
				cancel() // cancel mid-pipeline; the next ctx check aborts
			}
			return nil
		})
		_, err := db.AddSource(cctx, corpus.Source("pir"))
		db.sys.SetFailpoint(nil)
		cancel()
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("stage %s: err = %v, want ErrCanceled", stage, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("stage %s: wrapped chain lost context.Canceled: %v", stage, err)
		}
		gotStats, _ := db.Stats(ctx)
		if !reflect.DeepEqual(gotStats, wantStats) {
			t.Errorf("stage %s: stats changed: %+v -> %+v", stage, wantStats, gotStats)
		}
		gotSources, _ := db.Sources(ctx)
		if !reflect.DeepEqual(gotSources, wantSources) {
			t.Errorf("stage %s: sources changed: %v -> %v", stage, wantSources, gotSources)
		}
		gotLinks, err := db.Query(ctx, "SELECT COUNT(*) FROM swissprot_protein")
		if err != nil || !reflect.DeepEqual(gotLinks.Rows, wantLinks.Rows) {
			t.Errorf("stage %s: warehouse changed (%v)", stage, err)
		}
	}

	// The canceled source must integrate cleanly afterwards.
	if _, err := db.AddSource(ctx, corpus.Source("pir")); err != nil {
		t.Fatalf("add after canceled attempts: %v", err)
	}
	st, _ := db.Stats(ctx)
	if st.Repo.Sources != 2 {
		t.Errorf("sources after re-add = %d, want 2", st.Repo.Sources)
	}
}

// TestPipelinePanicBecomesErrInternal injects a panic mid-pipeline and
// asserts it surfaces as ErrInternal with the state unwound.
func TestPipelinePanicBecomesErrInternal(t *testing.T) {
	corpus := testCorpus()
	db := openWith(t, corpus, "swissprot")
	ctx := context.Background()

	db.sys.SetFailpoint(func(s string) error {
		if s == "duplicate-detection" {
			panic("injected pipeline panic")
		}
		return nil
	})
	_, err := db.AddSource(ctx, corpus.Source("pir"))
	db.sys.SetFailpoint(nil)
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
	st, _ := db.Stats(ctx)
	if st.Repo.Sources != 1 {
		t.Fatalf("panic left partial state: %d sources", st.Repo.Sources)
	}
	if _, err := db.AddSource(ctx, corpus.Source("pir")); err != nil {
		t.Fatalf("add after panic: %v", err)
	}
}

func TestTypedErrors(t *testing.T) {
	corpus := testCorpus()
	db := openWith(t, corpus, "swissprot")
	ctx := context.Background()

	if _, err := db.AddSource(ctx, corpus.Source("swissprot")); !errors.Is(err, ErrSourceExists) {
		t.Errorf("double add: %v, want ErrSourceExists", err)
	}
	if _, err := db.Query(ctx, "SELEKT nope"); !errors.Is(err, ErrBadQuery) {
		t.Errorf("bad sql: %v, want ErrBadQuery", err)
	}
	if _, err := db.Browse(ctx, ObjectRef{Source: "nope", Relation: "x", Accession: "y"}); !errors.Is(err, ErrUnknownSource) {
		t.Errorf("browse unknown source: %v, want ErrUnknownSource", err)
	}
	if _, err := db.Browse(ctx, ObjectRef{Source: "swissprot", Relation: "protein", Accession: "NOPE999"}); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("browse unknown object: %v, want ErrUnknownObject", err)
	}
	if _, err := db.Objects(ctx, "nope"); !errors.Is(err, ErrUnknownSource) {
		t.Errorf("objects unknown source: %v, want ErrUnknownSource", err)
	}
	if _, err := db.Reanalyze(ctx, "nope"); !errors.Is(err, ErrUnknownSource) {
		t.Errorf("reanalyze unknown source: %v, want ErrUnknownSource", err)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := db.Query(canceled, "SELECT 1"); !errors.Is(err, ErrCanceled) {
		t.Errorf("canceled query: %v, want ErrCanceled", err)
	}
	if _, err := db.AddSource(canceled, corpus.Source("pir")); !errors.Is(err, ErrCanceled) {
		t.Errorf("canceled add: %v, want ErrCanceled", err)
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(ctx, "SELECT 1"); !errors.Is(err, ErrClosed) {
		t.Errorf("query after close: %v, want ErrClosed", err)
	}
	if _, err := db.AddSource(ctx, corpus.Source("pir")); !errors.Is(err, ErrClosed) {
		t.Errorf("add after close: %v, want ErrClosed", err)
	}
}

// TestSnapshotRoundTrip saves an integrated warehouse and restores it
// through Open(WithSnapshot), asserting the restored DB serves the same
// links and feedback.
func TestSnapshotRoundTrip(t *testing.T) {
	corpus := testCorpus()
	db := openWith(t, corpus, "swissprot", "pdb")
	ctx := context.Background()

	links, _ := db.Stats(ctx)
	restored, err := Open(WithOntologySources("go"), WithSnapshot(db.sys.Snapshot()))
	if err != nil {
		t.Fatal(err)
	}
	st, err := restored.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Repo.Sources != links.Repo.Sources || st.Repo.Links != links.Repo.Links {
		t.Errorf("restored stats %+v != original %+v", st.Repo, links.Repo)
	}
	if _, err := restored.Query(ctx, "SELECT COUNT(*) FROM swissprot_protein"); err != nil {
		t.Errorf("restored warehouse: %v", err)
	}
}

// TestReanalyzeAndFeedbackThroughFacade exercises the §6.2 flows via the
// public API.
func TestReanalyzeAndFeedbackThroughFacade(t *testing.T) {
	corpus := testCorpus()
	db := openWith(t, corpus, "swissprot", "pdb")
	ctx := context.Background()

	st, _ := db.Stats(ctx)
	if st.Repo.Links == 0 {
		t.Fatal("no links to test feedback on")
	}
	// Remove the first xref link and confirm re-analysis honors it.
	var target Link
	for _, ref := range mustObjects(t, db, "swissprot")[:4] {
		v, err := db.Browse(ctx, ref)
		if err != nil {
			t.Fatal(err)
		}
		if len(v.Linked) > 0 {
			target = v.Linked[0]
			break
		}
	}
	if target.Type == 0 && target.From.Accession == "" {
		t.Skip("no linked object among first objects")
	}
	ok, err := db.RemoveLinkFeedback(ctx, target)
	if err != nil || !ok {
		t.Fatalf("remove feedback: ok=%v err=%v", ok, err)
	}
	if _, err := db.Reanalyze(ctx, target.From.Source); err != nil {
		t.Fatal(err)
	}
	v, err := db.Browse(ctx, target.From)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range v.Linked {
		if l.From == target.From && l.To == target.To {
			t.Error("removed link resurrected by re-analysis")
		}
	}

	// DML feeds the §6.2 change counter that re-analysis reset.
	if db.sys.NeedsReanalysis("swissprot") {
		t.Error("re-analysis left the change counter above the threshold")
	}
	if _, err := db.Exec(ctx, "DELETE FROM swissprot_protein"); err != nil {
		t.Fatal(err)
	}
	if !db.sys.NeedsReanalysis("swissprot") {
		t.Error("deleting every protein does not call for re-analysis")
	}
}

func mustObjects(t *testing.T, db *DB, source string) []ObjectRef {
	t.Helper()
	objs, err := db.Objects(context.Background(), source)
	if err != nil {
		t.Fatal(err)
	}
	return objs
}

func TestOpenOptionValidation(t *testing.T) {
	if _, err := Open(WithWorkers(-1)); err == nil {
		t.Error("negative workers accepted")
	}
}

// Compile-time interface sanity: the re-exported types are the internal
// ones, so values flow through without conversion.
var _ = metadata.ObjectRef(ObjectRef{})
