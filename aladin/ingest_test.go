package aladin

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/metadata"
	"repro/internal/rel"
)

// fastaText renders records start..start+n-1 of the deterministic
// streaming-test corpus.
func fastaText(t testing.TB, start, n int) string {
	t.Helper()
	var sb strings.Builder
	if err := datagen.FastaTextRange(&sb, start, n, 7); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// tableCount returns COUNT(*) of one table, or -1 with the error (the
// table may not exist yet while an ingest's first batch is in flight).
func tableCount(db *DB, table string) (int64, error) {
	res, err := db.Query(context.Background(), "SELECT COUNT(*) FROM "+table)
	if err != nil {
		return -1, err
	}
	n, _ := res.Rows[0][0].AsInt()
	return n, nil
}

// waitCount polls until the table holds at least want rows.
func waitCount(t *testing.T, db *DB, table string, want int64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		n, err := tableCount(db, table)
		if err == nil && n >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("table %s stuck at %d rows (err %v), want >= %d", table, n, err, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestIngestSource(t *testing.T) {
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()

	var progress []IngestProgress
	rep, err := db.IngestSource(ctx, "seqs", "fasta", strings.NewReader(fastaText(t, 0, 250)),
		WithBatchRecords(100),
		WithIngestProgress(func(p IngestProgress) { progress = append(progress, p) }))
	if err != nil {
		t.Fatalf("IngestSource: %v", err)
	}
	if rep.Source != "seqs" || rep.Records != 250 || rep.Batches != 3 || rep.Bytes == 0 {
		t.Fatalf("report = %+v", rep)
	}
	if len(progress) != 3 || progress[2].Records != 250 {
		t.Fatalf("progress = %+v", progress)
	}
	if n, err := tableCount(db, "seqs_fasta"); err != nil || n != 250 {
		t.Fatalf("row count = %d (%v), want 250", n, err)
	}
	// Records of every batch are searchable and browsable.
	hits, err := db.Search(ctx, "SQ000205", SearchFilter{}, 5)
	if err != nil || len(hits) == 0 {
		t.Fatalf("appended record not searchable: %v (%d hits)", err, len(hits))
	}
	objs := mustObjects(t, db, "seqs")
	if len(objs) != 250 {
		t.Fatalf("browse knows %d objects, want 250", len(objs))
	}
	// The observability totals reflect the run.
	st, err := db.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ig := st.Ingest
	if ig.Runs != 1 || ig.Batches != 3 || ig.Records != 250 || ig.Bytes != rep.Bytes {
		t.Fatalf("ingest stats = %+v", ig)
	}
	if ig.Parse <= 0 || ig.Commit <= 0 {
		t.Fatalf("ingest stage timings missing: %+v", ig)
	}

	// A second run appends to the now-existing source.
	rep2, err := db.IngestSource(ctx, "seqs", "fasta", strings.NewReader(fastaText(t, 250, 50)))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Records != 50 {
		t.Fatalf("second run = %+v", rep2)
	}
	if n, _ := tableCount(db, "seqs_fasta"); n != 300 {
		t.Fatalf("row count after second run = %d, want 300", n)
	}
	if st, _ := db.Stats(ctx); st.Ingest.Runs != 2 {
		t.Fatalf("runs = %d, want 2", st.Ingest.Runs)
	}
}

func TestIngestSourceBadInput(t *testing.T) {
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	r := strings.NewReader("x")
	if _, err := db.IngestSource(ctx, "s", "obo", r); !errors.Is(err, ErrBadFormat) {
		t.Errorf("obo ingest = %v, want ErrBadFormat", err)
	}
	if _, err := db.IngestSource(ctx, "s", "nosuch", r); !errors.Is(err, ErrBadFormat) {
		t.Errorf("unknown format = %v, want ErrBadFormat", err)
	}
	if _, err := db.IngestSource(ctx, "", "fasta", r); err == nil {
		t.Error("empty source name accepted")
	}
}

// TestIngestConcurrentReaders is the reader-safety bar: while a stream
// ingests in 50-record batches, concurrent queries only ever observe
// batch-boundary snapshots — counts that are multiples of the batch
// size — never a torn batch, and an object already published stays
// browsable while publish grows the ownership table. Run under -race.
func TestIngestConcurrentReaders(t *testing.T) {
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()

	const readers = 4
	done := make(chan struct{})
	errCh := make(chan error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				n, err := tableCount(db, "seqs_fasta")
				if err != nil {
					continue // source not created yet
				}
				if n%50 != 0 {
					errCh <- fmt.Errorf("reader %d saw %d rows mid-batch", r, n)
					return
				}
				if _, err := db.Browse(ctx, ObjectRef{Source: "seqs", Accession: "SQ000001"}); err != nil {
					errCh <- fmt.Errorf("reader %d: browsing a published object: %v", r, err)
					return
				}
			}
		}(r)
	}

	rep, err := db.IngestSource(ctx, "seqs", "fasta", strings.NewReader(fastaText(t, 0, 300)),
		WithBatchRecords(50))
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatalf("IngestSource under load: %v", err)
	}
	if rep.Records != 300 || rep.Batches != 6 {
		t.Fatalf("report = %+v", rep)
	}
	select {
	case rerr := <-errCh:
		t.Fatal(rerr)
	default:
	}
}

// A durable ingest journals one frame per batch; close and reopen
// recovers the full streamed source.
func TestIngestDurableRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := db.IngestSource(ctx, "seqs", "fasta", strings.NewReader(fastaText(t, 0, 120)),
		WithBatchRecords(50)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n, err := tableCount(re, "seqs_fasta"); err != nil || n != 120 {
		t.Fatalf("recovered count = %d (%v), want 120", n, err)
	}
	if hits, err := re.Search(ctx, "SQ000111", SearchFilter{}, 5); err != nil || len(hits) == 0 {
		t.Fatalf("recovered record not searchable: %v (%d hits)", err, len(hits))
	}
}

// TestTailIngest tails a file that grows while IngestSource runs over a
// NewTailReader: existing records surface without a full batch (the
// tail reader's stall flush), appended records surface without any
// explicit call, and canceling the tail commits the final held record
// (durable, so the total is visible on reopen).
func TestTailIngest(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(t.TempDir(), "live.fasta")
	if err := os.WriteFile(path, []byte(fastaText(t, 0, 30)), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	db, err := Open(WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := db.IngestSource(context.Background(), "live", "fasta", NewTailReader(ctx, f, 0))
		done <- err
	}()
	// The FASTA scanner holds the final record open until end of stream,
	// so the tail surfaces 29 of the 30 on-disk records.
	waitCount(t, db, "live_fasta", 29)

	// The file grows; the tail picks the continuation up by itself.
	w, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteString(fastaText(t, 30, 30)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	waitCount(t, db, "live_fasta", 59)

	// Canceling ends the tail; the held final record commits on the way out.
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("IngestSource over a canceled tail = %v, want nil", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n, err := tableCount(re, "live_fasta"); err != nil || n != 60 {
		t.Fatalf("count after close = %d (%v), want 60", n, err)
	}
}

// ingestFingerprint summarizes the state a replica must converge to
// after a streamed ingest: counts plus the full ordered accession column.
func ingestFingerprint(t *testing.T, db *DB) string {
	t.Helper()
	ctx := context.Background()
	st, err := db.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "sources=%d links=%d\n", st.Repo.Sources, st.Repo.Links)
	res, err := db.Query(ctx, "SELECT accession FROM seqs_fasta ORDER BY accession")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Fprintf(&b, "%s\n", row[0].AsString())
	}
	return b.String()
}

// TestReplicaConvergesDuringIngest streams a source into the primary
// while a replica follows: every batch is one replicated record, and the
// replica converges to the exact final state.
func TestReplicaConvergesDuringIngest(t *testing.T) {
	primary := openDurableWith(t, t.TempDir(), nil)
	defer primary.Close()
	srv := httptest.NewServer(primary.ReplHandler())
	defer srv.Close()
	replica := openReplicaOf(t, srv.URL, t.TempDir())
	defer replica.Close()

	rep, err := primary.IngestSource(context.Background(), "seqs", "fasta",
		strings.NewReader(fastaText(t, 0, 300)), WithBatchRecords(50))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Batches != 6 {
		t.Fatalf("report = %+v", rep)
	}
	waitCaughtUp(t, primary, replica)
	if got, want := ingestFingerprint(t, replica), ingestFingerprint(t, primary); got != want {
		t.Fatalf("replica diverges after streamed ingest:\n--- replica\n%s--- primary\n%s", got, want)
	}
	// The stream keeps flowing: another run, another convergence.
	if _, err := primary.IngestSource(context.Background(), "seqs", "fasta",
		strings.NewReader(fastaText(t, 300, 60)), WithBatchRecords(25)); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, primary, replica)
	if got, want := ingestFingerprint(t, replica), ingestFingerprint(t, primary); got != want {
		t.Fatalf("replica diverges after second run:\n--- replica\n%s--- primary\n%s", got, want)
	}
	if n, err := tableCount(replica, "seqs_fasta"); err != nil || n != 360 {
		t.Fatalf("replica count = %d (%v), want 360", n, err)
	}
}

// emblUpload renders one EMBL upload of n entries, accessions Q<first>
// onwards, each with two Pfam dbrefs; refs go to the upload's first
// entry as extra dbrefs. Entry names differ in length by more than a
// fifth, so the accession heuristic picks AC. The scanner numbers
// entry_id from 1 in every upload.
func emblUpload(first, n int, refs ...string) string {
	var sb strings.Builder
	for i := first; i < first+n; i++ {
		fmt.Fprintf(&sb, "ID   %s%d_HUMAN   Reviewed;   40 BP.\nAC   Q%05d;\nDE   Protein %d.\nOS   Homo sapiens.\n",
			[]string{"A", "CALM"}[i%2], i, i, i)
		fmt.Fprintf(&sb, "DR   Pfam; PF%05d; fam.\nDR   Pfam; PF%05d; fam.\n", 2*i, 2*i+1)
		if i == first {
			for _, r := range refs {
				fmt.Fprintf(&sb, "DR   TDB; %s; -.\n", r)
			}
		}
		fmt.Fprintf(&sb, "SQ   SEQUENCE   40 BP;\n     %s\n//\n", strings.Repeat("ACGT", 10))
	}
	return sb.String()
}

// TestTwoUploadsLinkFromTheirOwnEntries streams one source in two
// uploads whose entry_id surrogates both start at 1, and only the second
// upload's first entry cites the target. Ownership is resolved per
// batch, so every xref link to the target comes from that entry — not
// also from the first upload's entry with the same entry_id.
func TestTwoUploadsLinkFromTheirOwnEntries(t *testing.T) {
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	uploadTwice(t, db)
	addTarget(t, db)
	if got, want := twoUploadsState(t, db), twoUploadsWant; got != want {
		t.Errorf("state after adding the target:\n%s--- want\n%s", got, want)
	}
}

// TestTwoUploadsSurviveRestart: the source's two uploads are
// checkpointed, then the target is added and re-analyzed, which
// rediscovers the links from the source's ownership table. Recovery, a
// replica bootstrapped from the segments and an in-memory snapshot
// restore that table batch by batch, so they hold the live links,
// search hits and browse views — not also the other upload's entry's.
func TestTwoUploadsSurviveRestart(t *testing.T) {
	ctx := context.Background()
	path := t.TempDir()
	db, err := Open(WithDataDir(path))
	if err != nil {
		t.Fatal(err)
	}
	uploadTwice(t, db)
	if err := db.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	addTarget(t, db)
	if _, err := db.Reanalyze(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	if got := twoUploadsState(t, db); got != twoUploadsWant {
		t.Fatalf("live state after re-analysis:\n%s--- want\n%s", got, twoUploadsWant)
	}
	srv := httptest.NewServer(db.ReplHandler())
	defer srv.Close()
	replica := openReplicaOf(t, srv.URL, t.TempDir())
	defer replica.Close()
	waitCaughtUp(t, db, replica)
	if got := twoUploadsState(t, replica); got != twoUploadsWant {
		t.Errorf("replica:\n%s--- want\n%s", got, twoUploadsWant)
	}
	loaded, err := Open(WithSnapshot(db.sys.Snapshot()))
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if got := twoUploadsState(t, loaded); got != twoUploadsWant {
		t.Errorf("loaded snapshot:\n%s--- want\n%s", got, twoUploadsWant)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(WithDataDir(path))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := twoUploadsState(t, reopened); got != twoUploadsWant {
		t.Errorf("recovered:\n%s--- want\n%s", got, twoUploadsWant)
	}
}

// uploadTwice streams source s in two uploads of ten entries each; only
// the second upload's first entry, Q00011, cites the target's terms.
func uploadTwice(t *testing.T, db *DB) {
	t.Helper()
	for _, text := range []string{emblUpload(1, 10), emblUpload(11, 10, "T00001", "T00002", "T00003")} {
		if _, err := db.IngestSource(context.Background(), "s", "embl", strings.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	}
}

// addTarget adds source t, five terms T00001..T00005.
func addTarget(t *testing.T, db *DB) {
	t.Helper()
	target := rel.NewDatabase("t")
	term := target.Create("term", rel.TextSchema("accession", "name"))
	for i := 1; i <= 5; i++ {
		term.AppendRaw(fmt.Sprintf("T%05d", i), fmt.Sprintf("target term %d", i))
	}
	if _, err := db.AddSource(context.Background(), target); err != nil {
		t.Fatal(err)
	}
}

// twoUploadsWant is twoUploadsState when every citation of the target
// resolves to the citing entry, and each upload's first entry browses
// its own dependent rows.
const twoUploadsWant = `xref Q00011 -> T00001
xref Q00011 -> T00002
xref Q00011 -> T00003
search Q00011
browse Q00001 dbref 1 PF00002
browse Q00001 dbref 2 PF00003
browse Q00001 sequence 1
browse Q00011 dbref 1 PF00022
browse Q00011 dbref 2 PF00023
browse Q00011 dbref 3 T00001
browse Q00011 dbref 4 T00002
browse Q00011 dbref 5 T00003
browse Q00011 sequence 1
`

// twoUploadsState lists the xref links from s to t, the s objects a
// search for the first cited term finds, and the dependent rows of
// each upload's first entry: relation, id and cited accession.
func twoUploadsState(t *testing.T, db *DB) string {
	t.Helper()
	var lines []string
	for _, l := range db.sys.Repo.AllLinks() {
		if l.Type == metadata.LinkXRef && l.From.Source == "s" && l.To.Source == "t" {
			lines = append(lines, fmt.Sprintf("xref %s -> %s\n", l.From.Accession, l.To.Accession))
		}
	}
	slices.Sort(lines)
	hits, err := db.Search(context.Background(), "T00001", SearchFilter{Sources: []string{"s"}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		lines = append(lines, fmt.Sprintf("search %s\n", h.Document.Object.Accession))
	}
	for _, acc := range []string{"Q00001", "Q00011"} {
		v, err := db.Browse(context.Background(), ObjectRef{Source: "s", Accession: acc})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range v.Annotations {
			id := a.Fields[a.Relation+"_id"]
			if id == "" {
				id = a.Fields["entry_id"]
			}
			lines = append(lines, strings.TrimSpace(fmt.Sprintf("browse %s %s %s %s", acc, a.Relation, id, a.Fields["ref_accession"]))+"\n")
		}
	}
	return strings.Join(lines, "")
}
