package aladin

import (
	"context"
	"errors"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// guardCase calls one public DB method with ctx; mutator marks the
// methods a replica must refuse.
type guardCase struct {
	method  string
	mutator bool
	call    func(ctx context.Context, db *DB) error
}

func guardCases() []guardCase {
	ref := ObjectRef{Source: "swissprot", Relation: "protein", Accession: "P10000"}
	fasta := func() *strings.Reader { return strings.NewReader(">s1 one\nACGTACGT\n") }
	return []guardCase{
		{"AddSource", true, func(ctx context.Context, db *DB) error {
			_, err := db.AddSource(ctx, testCorpus().Source("pdb"))
			return err
		}},
		{"Checkpoint", false, func(ctx context.Context, db *DB) error { return db.Checkpoint(ctx) }},
		{"Conflicts", false, func(ctx context.Context, db *DB) error {
			_, err := db.Conflicts(ctx, ref, ref)
			return err
		}},
		{"Crawl", false, func(ctx context.Context, db *DB) error {
			_, err := db.Crawl(ctx, ref, 1)
			return err
		}},
		{"Browse", false, func(ctx context.Context, db *DB) error {
			_, err := db.Browse(ctx, ref)
			return err
		}},
		{"Exec", true, func(ctx context.Context, db *DB) error {
			_, err := db.Exec(ctx, "DELETE FROM swissprot_protein WHERE accession = 'NONE'")
			return err
		}},
		{"Explain", false, func(ctx context.Context, db *DB) error {
			_, err := db.Explain(ctx, "SELECT accession FROM swissprot_protein")
			return err
		}},
		{"ExplainAnalyze", false, func(ctx context.Context, db *DB) error {
			_, err := db.ExplainAnalyze(ctx, "SELECT accession FROM swissprot_protein")
			return err
		}},
		{"IngestSource", true, func(ctx context.Context, db *DB) error {
			_, err := db.IngestSource(ctx, "seqs", "fasta", fasta())
			return err
		}},
		{"Objects", false, func(ctx context.Context, db *DB) error {
			_, err := db.Objects(ctx, "swissprot")
			return err
		}},
		{"Query", false, func(ctx context.Context, db *DB) error {
			_, err := db.Query(ctx, "SELECT accession FROM swissprot_protein")
			return err
		}},
		{"QueryRows", false, func(ctx context.Context, db *DB) error {
			rows, err := db.QueryRows(ctx, "SELECT accession FROM swissprot_protein")
			if err == nil {
				rows.Close()
			}
			return err
		}},
		{"QueryRowsExplain", false, func(ctx context.Context, db *DB) error {
			rows, _, err := db.QueryRowsExplain(ctx, "SELECT accession FROM swissprot_protein")
			if err == nil {
				rows.Close()
			}
			return err
		}},
		{"Reanalyze", true, func(ctx context.Context, db *DB) error {
			_, err := db.Reanalyze(ctx, "swissprot")
			return err
		}},
		{"Related", false, func(ctx context.Context, db *DB) error {
			_, err := db.Related(ctx, ref, 2, 5)
			return err
		}},
		{"RemoveLinkFeedback", true, func(ctx context.Context, db *DB) error {
			_, err := db.RemoveLinkFeedback(ctx, Link{From: ref, To: ref})
			return err
		}},
		{"Search", false, func(ctx context.Context, db *DB) error {
			_, err := db.Search(ctx, "protein", SearchFilter{}, 5)
			return err
		}},
		{"SnapshotID", false, func(ctx context.Context, db *DB) error {
			_, err := db.SnapshotID(ctx)
			return err
		}},
		{"Source", false, func(ctx context.Context, db *DB) error {
			_, err := db.Source(ctx, "swissprot")
			return err
		}},
		{"Sources", false, func(ctx context.Context, db *DB) error {
			_, err := db.Sources(ctx)
			return err
		}},
		{"Stats", false, func(ctx context.Context, db *DB) error {
			_, err := db.Stats(ctx)
			return err
		}},
	}
}

// TestEveryMethodGuards pins the guards every public DB method keeps: a
// canceled context gives ErrCanceled, a closed database ErrClosed, and a
// replica refuses every mutator with ErrReadOnlyReplica. The table must
// name every exported method but Close and ReplHandler, which take no
// context and return no such errors.
func TestEveryMethodGuards(t *testing.T) {
	cases := guardCases()
	var named, exported []string
	for _, c := range cases {
		named = append(named, c.method)
	}
	typ := reflect.TypeOf(&DB{})
	for i := 0; i < typ.NumMethod(); i++ {
		if m := typ.Method(i).Name; m != "Close" && m != "ReplHandler" {
			exported = append(exported, m)
		}
	}
	sort.Strings(named)
	if !reflect.DeepEqual(named, exported) {
		t.Fatalf("guard table names %v, DB exports %v", named, exported)
	}

	db := openDurableWith(t, t.TempDir(), nil, "swissprot")
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range cases {
		if err := c.call(canceled, db); !errors.Is(err, ErrCanceled) {
			t.Errorf("%s with a canceled context: %v, want ErrCanceled", c.method, err)
		}
	}

	ctx := context.Background()
	srv := httptest.NewServer(db.ReplHandler())
	replica := openReplicaOf(t, srv.URL, t.TempDir())
	for _, c := range cases {
		if err := c.call(ctx, replica); c.mutator && !errors.Is(err, ErrReadOnlyReplica) {
			t.Errorf("%s on a replica: %v, want ErrReadOnlyReplica", c.method, err)
		}
	}
	replica.Close()
	srv.Close()

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if err := c.call(ctx, db); !errors.Is(err, ErrClosed) {
			t.Errorf("%s on a closed database: %v, want ErrClosed", c.method, err)
		}
	}
}

// TestWritePanicFailsStop: a panic behind the write door closes the
// database instead of leaving it write-locked or half written. The
// panicking call returns ErrInternal, later reads return ErrClosed, and
// Close still gets the lock.
func TestWritePanicFailsStop(t *testing.T) {
	db := openWith(t, testCorpus(), "swissprot")
	ref := ObjectRef{Source: "swissprot", Relation: "protein", Accession: "P10000"}
	done := make(chan struct{})
	go func() {
		defer close(done)
		err := db.write(func(*core.System) error { panic("injected write panic") })
		if !errors.Is(err, ErrInternal) {
			t.Errorf("panicking write: %v, want ErrInternal", err)
		}
		if _, err := db.Browse(context.Background(), ref); !errors.Is(err, ErrClosed) {
			t.Errorf("browse after the panic: %v, want ErrClosed", err)
		}
		if err := db.Close(); err != nil {
			t.Errorf("close after the panic: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a call after the panicking write hangs")
	}
}
