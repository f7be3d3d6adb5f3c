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
	"testing"
	"time"

	"repro/internal/repl"
)

// warehouseFingerprint summarizes the state a replica must converge to:
// sources, per-relation tuple counts, link/removed counts, and the full
// ordered accession column (so row-level divergence shows, not just
// counts).
func warehouseFingerprint(t *testing.T, db *DB) string {
	t.Helper()
	ctx := context.Background()
	st, err := db.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "sources=%d links=%d removed=%d\n", st.Repo.Sources, st.Repo.Links, st.Repo.RemovedLinks)
	wh := db.sys.WarehouseSnapshot()
	rels := wh.Names()
	slices.Sort(rels)
	for _, n := range rels {
		fmt.Fprintf(&b, "rel %s: %d\n", n, len(wh.Relation(n).Tuples))
	}
	res, err := db.Query(ctx, "SELECT accession FROM swissprot_protein ORDER BY accession")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Fprintf(&b, "%s\n", row[0].AsString())
	}
	return b.String()
}

// waitCaughtUp polls until the replica has applied the primary's
// current sequence.
func waitCaughtUp(t *testing.T, primary, replica *DB) {
	t.Helper()
	want := primary.sys.SnapshotSeq()
	deadline := time.Now().Add(15 * time.Second)
	for replica.sys.SnapshotSeq() < want {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at seq %d, primary at %d (state %+v)",
				replica.sys.SnapshotSeq(), want, replica.replicationStats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func openReplicaOf(t *testing.T, url, path string, extra ...Option) *DB {
	t.Helper()
	opts := append([]Option{WithOntologySources("go"), WithDataDir(path), WithReplicaOf(url)}, extra...)
	db, err := Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestReplicaConvergence is the tentpole acceptance test: a replica
// bootstrapped over HTTP converges to the primary's exact state, serves
// indexed reads, pins cursors to a snapshot, keeps converging while the
// primary mutates, and rejects every write.
func TestReplicaConvergence(t *testing.T) {
	ctx := context.Background()
	primary := openDurableWith(t, t.TempDir(), nil, "swissprot", "pdb")
	defer primary.Close()
	srv := httptest.NewServer(primary.ReplHandler())
	defer srv.Close()

	replica := openReplicaOf(t, srv.URL, t.TempDir())
	defer replica.Close()
	waitCaughtUp(t, primary, replica)

	if got, want := warehouseFingerprint(t, replica), warehouseFingerprint(t, primary); got != want {
		t.Fatalf("replica state diverges from primary:\n--- replica\n%s--- primary\n%s", got, want)
	}

	// The replica rebuilt the primary's hash indexes: an accession point
	// query scans exactly one tuple.
	acc := firstAccession(t, replica)
	rows, err := replica.QueryRows(ctx, fmt.Sprintf("SELECT * FROM swissprot_protein WHERE accession = '%s'", acc))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 1 || rows.Scanned() != 1 {
		t.Fatalf("replica point query: rows=%d scanned=%d, want 1/1", n, rows.Scanned())
	}
	// Reads carry the snapshot they observed.
	sid := rows.SnapshotID()
	rows.Close()
	if sid.Seq != replica.sys.SnapshotSeq() || sid.String() == "" {
		t.Fatalf("rows snapshot = %+v, applied seq %d", sid, replica.sys.SnapshotSeq())
	}

	// Every mutation is rejected with ErrReadOnlyReplica naming the
	// primary; the warehouse is owned by the stream.
	corpus := testCorpus()
	if _, err := replica.AddSource(ctx, corpus.Source("go")); !errors.Is(err, ErrReadOnlyReplica) {
		t.Fatalf("AddSource on replica = %v, want ErrReadOnlyReplica", err)
	}
	if _, err := replica.Exec(ctx, "DELETE FROM swissprot_protein WHERE 1 = 1"); !errors.Is(err, ErrReadOnlyReplica) {
		t.Fatalf("Exec on replica = %v, want ErrReadOnlyReplica", err)
	}
	if _, err := replica.Reanalyze(ctx, "swissprot"); !errors.Is(err, ErrReadOnlyReplica) {
		t.Fatalf("Reanalyze on replica = %v, want ErrReadOnlyReplica", err)
	}
	if _, err := replica.IngestSource(ctx, "seqs", "fasta", strings.NewReader(fastaText(t, 0, 3))); !errors.Is(err, ErrReadOnlyReplica) {
		t.Fatalf("IngestSource on replica = %v, want ErrReadOnlyReplica", err)
	}
	if countProteins(t, replica) != countProteins(t, primary) {
		t.Fatal("rejected writes must not touch the replica's state")
	}

	// Writes on the primary stream across; the replica converges again.
	if _, err := primary.Exec(ctx, fmt.Sprintf("DELETE FROM swissprot_protein WHERE accession = '%s'", acc)); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, primary, replica)
	if got, want := warehouseFingerprint(t, replica), warehouseFingerprint(t, primary); got != want {
		t.Fatalf("replica diverges after streamed DML:\n--- replica\n%s--- primary\n%s", got, want)
	}

	st, err := replica.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	r := st.Replication
	if r.Role != "replica" || r.State != ReplStateStreaming || r.Lag != 0 ||
		r.Primary != strings.TrimRight(srv.URL, "/") || r.BootstrapMode != "segments" {
		t.Fatalf("replication stats = %+v", r)
	}
	if pst, _ := primary.Stats(ctx); pst.Replication.Role != "primary" {
		t.Fatalf("primary role = %q", pst.Replication.Role)
	}
	if st.Snapshot.Seq != primary.sys.SnapshotSeq() {
		t.Fatalf("replica snapshot %v, primary seq %d", st.Snapshot, primary.sys.SnapshotSeq())
	}
}

// A restarted replica recovers from its own directory — local segments
// plus its own journaled copy of the stream — and fetches only the
// delta, reporting bootstrap mode "resume".
func TestReplicaResumesFromLocalState(t *testing.T) {
	ctx := context.Background()
	primary := openDurableWith(t, t.TempDir(), nil, "swissprot", "pdb")
	defer primary.Close()
	srv := httptest.NewServer(primary.ReplHandler())
	defer srv.Close()

	rdir := t.TempDir()
	replica := openReplicaOf(t, srv.URL, rdir)
	waitCaughtUp(t, primary, replica)
	if err := replica.Close(); err != nil {
		t.Fatal(err)
	}

	// The primary moves on while the replica is down.
	acc := firstAccession(t, primary)
	if _, err := primary.Exec(ctx, fmt.Sprintf("DELETE FROM swissprot_protein WHERE accession = '%s'", acc)); err != nil {
		t.Fatal(err)
	}

	re := openReplicaOf(t, srv.URL, rdir)
	defer re.Close()
	waitCaughtUp(t, primary, re)
	st, err := re.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Replication.BootstrapMode != "resume" {
		t.Fatalf("bootstrap mode = %q, want resume (full re-download instead of delta)", st.Replication.BootstrapMode)
	}
	if got, want := warehouseFingerprint(t, re), warehouseFingerprint(t, primary); got != want {
		t.Fatalf("resumed replica diverges:\n--- replica\n%s--- primary\n%s", got, want)
	}
}

// A replica that fell behind the primary's checkpoint horizon while
// down cannot stream the delta (it was trimmed); reopening wipes the
// marker-guarded directory and re-bootstraps from segments.
func TestReplicaRebootstrapsPastTrimmedWAL(t *testing.T) {
	ctx := context.Background()
	primary := openDurableWith(t, t.TempDir(), nil, "swissprot")
	defer primary.Close()
	srv := httptest.NewServer(primary.ReplHandler())
	defer srv.Close()

	rdir := t.TempDir()
	replica := openReplicaOf(t, srv.URL, rdir)
	waitCaughtUp(t, primary, replica)
	replica.Close()

	// While the replica is down the primary integrates another source
	// and checkpoints, trimming the WAL records the replica would need.
	corpus := testCorpus()
	if _, err := primary.AddSource(ctx, corpus.Source("pdb")); err != nil {
		t.Fatal(err)
	}
	if err := primary.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}

	re := openReplicaOf(t, srv.URL, rdir)
	defer re.Close()
	waitCaughtUp(t, primary, re)
	st, err := re.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Replication.BootstrapMode != "segments" {
		t.Fatalf("bootstrap mode = %q, want segments (stale dir must be re-bootstrapped)", st.Replication.BootstrapMode)
	}
	if got, want := warehouseFingerprint(t, re), warehouseFingerprint(t, primary); got != want {
		t.Fatalf("re-bootstrapped replica diverges:\n--- replica\n%s--- primary\n%s", got, want)
	}
}

// A data directory holding state but no REPLICA marker is somebody's
// primary; WithReplicaOf must refuse to touch it rather than wipe it.
func TestReplicaRefusesUnmarkedDirectory(t *testing.T) {
	dir := t.TempDir()
	db := openDurableWith(t, dir, nil, "swissprot")
	db.Close()

	srv := httptest.NewServer(nil)
	defer srv.Close()
	_, err := Open(WithDataDir(dir), WithReplicaOf(srv.URL))
	if err == nil || !strings.Contains(err.Error(), repl.MarkerName) {
		t.Fatalf("open over an unmarked primary directory = %v, want marker refusal", err)
	}
	// And it must not have destroyed anything: the primary still opens.
	re, err := Open(WithOntologySources("go"), WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if countProteins(t, re) == 0 {
		t.Fatal("refused open still damaged the primary's data")
	}
}

func TestReplicaRequiresDataDir(t *testing.T) {
	if _, err := Open(WithReplicaOf("http://localhost:1")); err == nil {
		t.Fatal("WithReplicaOf without WithDataDir should fail")
	}
}

// The replica journals the stream into its own WAL and honors local
// checkpoint thresholds, so a long stream folds into local segments.
func TestReplicaLocalCheckpoints(t *testing.T) {
	ctx := context.Background()
	primary := openDurableWith(t, t.TempDir(), nil, "swissprot", "pdb")
	defer primary.Close()
	srv := httptest.NewServer(primary.ReplHandler())
	defer srv.Close()

	rdir := t.TempDir()
	replica := openReplicaOf(t, srv.URL, rdir, WithCheckpointEvery(2))
	defer replica.Close()
	waitCaughtUp(t, primary, replica)

	accs, err := primary.Query(ctx, "SELECT accession FROM swissprot_protein ORDER BY accession")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4 && i < len(accs.Rows); i++ {
		if _, err := primary.Exec(ctx, fmt.Sprintf("DELETE FROM swissprot_protein WHERE accession = '%s'", accs.Rows[i][0].AsString())); err != nil {
			t.Fatal(err)
		}
	}
	waitCaughtUp(t, primary, replica)

	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := replica.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Durability.Gen >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never checkpointed locally: %+v", st.Durability)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The local directory carries segments now, not just a WAL copy.
	entries, err := os.ReadDir(rdir)
	if err != nil {
		t.Fatal(err)
	}
	segs := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "seg-") && filepath.Ext(e.Name()) == ".seg" {
			segs++
		}
	}
	if segs == 0 {
		t.Fatal("no local segment files after replica checkpoint")
	}
}

// TestReanalyzeStreamsAndSurvivesRestart: Reanalyze on a durable primary
// is one journaled mutation — the snapshot ID moves by one, a following
// replica converges on the re-analyzed links, and reopening the primary
// without a checkpoint replays it.
func TestReanalyzeStreamsAndSurvivesRestart(t *testing.T) {
	ctx := context.Background()
	path := t.TempDir()
	primary := openDurableWith(t, path, nil, "swissprot", "pdb")
	srv := httptest.NewServer(primary.ReplHandler())
	defer srv.Close()
	replica := openReplicaOf(t, srv.URL, t.TempDir())
	defer replica.Close()

	// The first protein gains a reference to the last structure, which it
	// is not linked to; only re-analysis turns the new value into a link.
	res, err := primary.Query(ctx, "SELECT pdb_code FROM pdb_structure ORDER BY pdb_code DESC LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	code := res.Rows[0][0].AsString()
	if _, err := primary.Exec(ctx, fmt.Sprintf("INSERT INTO swissprot_dbref VALUES ('9001', '1', '%s')", code)); err != nil {
		t.Fatal(err)
	}
	before, _ := primary.Stats(ctx)
	rep, err := primary.Reanalyze(ctx, "swissprot")
	if err != nil {
		t.Fatal(err)
	}
	after, _ := primary.Stats(ctx)
	if rep.LinksAdded["xref"] == 0 || after.Repo.Links <= before.Repo.Links {
		t.Fatalf("re-analysis added %v, links %d -> %d", rep.LinksAdded, before.Repo.Links, after.Repo.Links)
	}
	if after.Snapshot.Seq != before.Snapshot.Seq+1 {
		t.Errorf("snapshot %v -> %v, want one step", before.Snapshot, after.Snapshot)
	}

	waitCaughtUp(t, primary, replica)
	want := warehouseFingerprint(t, primary)
	if got := warehouseFingerprint(t, replica); got != want {
		t.Errorf("replica diverges after streamed re-analysis:\n--- replica\n%s--- primary\n%s", got, want)
	}
	if rst, _ := replica.Stats(ctx); rst.Repo.LinksByType["xref"] != after.Repo.LinksByType["xref"] {
		t.Errorf("replica xref links = %d, primary %d", rst.Repo.LinksByType["xref"], after.Repo.LinksByType["xref"])
	}

	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(WithOntologySources("go"), WithDataDir(path))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := warehouseFingerprint(t, reopened); got != want {
		t.Errorf("reopened primary lost the re-analysis:\n--- reopened\n%s--- before close\n%s", got, want)
	}
	if sid, _ := reopened.SnapshotID(ctx); sid.Seq != after.Snapshot.Seq {
		t.Errorf("reopened at %v, closed at %v", sid, after.Snapshot)
	}
}
