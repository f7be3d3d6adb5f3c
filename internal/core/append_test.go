package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/flatfile"
	"repro/internal/metadata"
	"repro/internal/rel"
	"repro/internal/search"
	"repro/internal/store"
)

// fastaBatch parses records start..start+n-1 of the deterministic FASTA
// corpus into a fresh database named name.
func fastaBatch(t *testing.T, name string, start, n int) *rel.Database {
	t.Helper()
	var sb strings.Builder
	if err := datagen.FastaTextRange(&sb, start, n, 3); err != nil {
		t.Fatal(err)
	}
	db, err := flatfile.Parse("fasta", strings.NewReader(sb.String()), name)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// appendToSource prepares and commits one batch append.
func appendToSource(ctx context.Context, sys *System, source string, batch *rel.Database) (*AddReport, error) {
	p, err := sys.PrepareAppend(ctx, source, batch)
	if err != nil {
		return nil, err
	}
	return sys.Commit(p)
}

func TestAppendToSource(t *testing.T) {
	sys := New(defaultOpts())
	if _, err := sys.AddSource(fastaBatch(t, "seqs", 0, 40)); err != nil {
		t.Fatal(err)
	}
	rep, err := appendToSource(context.Background(), sys, "seqs", fastaBatch(t, "seqs", 40, 25))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 25 || rep.Tuples != 25 || rep.Source != "seqs" {
		t.Fatalf("report = %+v", rep)
	}
	wh := sys.WarehouseSnapshot()
	r := wh.Relation("seqs_fasta")
	if r == nil || len(r.Tuples) != 65 {
		t.Fatalf("warehouse relation has %d tuples, want 65", len(r.Tuples))
	}
	// The source relation grew too, and the registered metadata tracks it.
	if got := sys.Repo.Source("seqs").TupleCount; got != 65 {
		t.Fatalf("registered tuple count = %d, want 65", got)
	}
	// Search postings for the appended batch were merged in.
	if hits := sys.Search("SQ000050", search.Filter{}, 5); len(hits) == 0 {
		t.Error("appended record not searchable")
	}
	// The browse web knows the appended accessions in sorted order.
	v, err := sys.Browse(objectRef(sys, "seqs", "SQ000050"))
	if err != nil {
		t.Fatalf("Browse appended accession: %v", err)
	}
	if v.PrevAccession != "SQ000049" || v.NextAccession != "SQ000051" {
		t.Errorf("browse order around appended record: prev=%s next=%s", v.PrevAccession, v.NextAccession)
	}
}

// objectRef builds the primary-relation ref for an accession.
func objectRef(s *System, source, acc string) metadata.ObjectRef {
	st := s.Repo.Source(source).Structure
	return metadata.ObjectRef{Source: source, Relation: st.Primary, Accession: acc}
}

func TestAppendValidation(t *testing.T) {
	sys := New(defaultOpts())
	if _, err := sys.AddSource(fastaBatch(t, "seqs", 0, 30)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := appendToSource(ctx, sys, "nosuch", fastaBatch(t, "nosuch", 0, 5)); err == nil {
		t.Error("append to unknown source succeeded")
	}
	// A batch relation the source does not have is rejected.
	alien := rel.NewDatabase("seqs")
	alien.Create("extra", rel.TextSchema("a", "b"))
	alien.Relation("extra").AppendRaw("1", "2")
	if _, err := appendToSource(ctx, sys, "seqs", alien); err == nil {
		t.Error("append adding a new relation succeeded")
	}
	// Mismatched columns are rejected.
	skewed := rel.NewDatabase("seqs")
	skewed.Create("fasta", rel.TextSchema("fasta_id", "accession"))
	skewed.Relation("fasta").AppendRaw("1", "X1")
	if _, err := appendToSource(ctx, sys, "seqs", skewed); err == nil {
		t.Error("append with mismatched schema succeeded")
	}
}

// TestAppendAgainstOtherSources: batches of an appended source discover
// links against the other integrated sources, and duplicate detection
// sees earlier batches of the same source.
func TestAppendCrossSourceLinks(t *testing.T) {
	sys := New(defaultOpts())
	corpus := datagen.Generate(datagen.Config{Seed: 11, Proteins: 12})
	for _, src := range corpus.Sources[:2] { // swissprot + pdb
		if _, err := sys.AddSource(src); err != nil {
			t.Fatal(err)
		}
	}
	before := len(sys.Repo.AllLinks())

	// Re-integrate swissprot's own tuples as an append batch to a COPY
	// source: links to pdb must be discovered for the appended rows.
	sp := corpus.Sources[0]
	first := sp.ShallowClone()
	first.Name = "spcopy"
	// Seed with the first half, append the second half.
	half := splitDatabase(t, sp, "spcopy")
	if _, err := sys.AddSource(half[0]); err != nil {
		t.Fatal(err)
	}
	rep, err := appendToSource(context.Background(), sys, "spcopy", half[1])
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range rep.LinksAdded {
		total += n
	}
	if total == 0 {
		t.Errorf("appended batch discovered no links (repo had %d)", before)
	}
}

// splitDatabase splits every relation's tuples in half into two
// databases with the same schemas.
func splitDatabase(t *testing.T, src *rel.Database, name string) [2]*rel.Database {
	t.Helper()
	var out [2]*rel.Database
	for i := range out {
		out[i] = rel.NewDatabase(name)
	}
	for _, r := range src.Relations() {
		mid := len(r.Tuples) / 2
		a := out[0].Create(r.Name, r.Schema)
		for _, tup := range r.Tuples[:mid] {
			a.Append(tup)
		}
		b := out[1].Create(r.Name, r.Schema)
		for _, tup := range r.Tuples[mid:] {
			b.Append(tup)
		}
	}
	return out
}

// TestAppendDurableRecovery: appended batches are journaled as RecAppend
// frames and recovery replays them onto the restored source.
func TestAppendDurableRecovery(t *testing.T) {
	path := t.TempDir()
	dir, err := store.OpenDir(path)
	if err != nil {
		t.Fatal(err)
	}
	sys := New(defaultOpts())
	sys.AttachDurable(dir)
	if _, err := sys.AddSource(fastaBatch(t, "seqs", 0, 30)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := appendToSource(context.Background(), sys, "seqs", fastaBatch(t, "seqs", 30+10*i, 10)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	want := fingerprint(sys)
	if err := dir.Close(); err != nil {
		t.Fatal(err)
	}

	got, dir2, n := recoverSystem(t, path)
	defer dir2.Close()
	if n != 4 { // 1 AddSource + 3 appends
		t.Errorf("replayed %d WAL records, want 4", n)
	}
	if g := fingerprint(got); g != want {
		t.Errorf("recovered state differs:\n--- want ---\n%s\n--- got ---\n%s", want, g)
	}
	if got.Repo.Source("seqs").TupleCount != 60 {
		t.Errorf("recovered tuple count = %d, want 60", got.Repo.Source("seqs").TupleCount)
	}
	// Appends survive a checkpoint fold as well.
	checkpointNow(t, got)
	if err := dir2.Close(); err != nil {
		t.Fatal(err)
	}
	again, dir3, n := recoverSystem(t, path)
	defer dir3.Close()
	if n != 0 {
		t.Errorf("post-checkpoint recovery replayed %d records, want 0", n)
	}
	if g := fingerprint(again); g != want {
		t.Errorf("post-checkpoint state differs:\n--- want ---\n%s\n--- got ---\n%s", want, g)
	}
}

// TestCrashBetweenAppendBatches is the streaming-ingestion crash bar: a
// kill while journaling batch N+1 must not acknowledge it, must leave
// the live state at the batch-N boundary, and recovery from the
// directory must land exactly there.
func TestCrashBetweenAppendBatches(t *testing.T) {
	path := t.TempDir()
	dir, err := store.OpenDir(path)
	if err != nil {
		t.Fatal(err)
	}
	sys := New(defaultOpts())
	sys.AttachDurable(dir)
	if _, err := sys.AddSource(fastaBatch(t, "seqs", 0, 20)); err != nil {
		t.Fatal(err)
	}
	if _, err := appendToSource(context.Background(), sys, "seqs", fastaBatch(t, "seqs", 20, 10)); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(sys)

	boom := errors.New("simulated crash")
	dir.Failpoint = func(stage string) error {
		if stage == "wal-append" {
			return boom
		}
		return nil
	}
	_, err = appendToSource(context.Background(), sys, "seqs", fastaBatch(t, "seqs", 30, 10))
	if !errors.Is(err, ErrDurability) {
		t.Fatalf("append under failpoint = %v, want ErrDurability", err)
	}
	// The unacknowledged batch must not leak into the live state — not
	// into the relations, and not into the duplicate index either (a
	// later append must not see its records as existing duplicates).
	if g := fingerprint(sys); g != want {
		t.Errorf("failed batch leaked into live state:\n--- want ---\n%s\n--- got ---\n%s", want, g)
	}
	if err := dir.Close(); err != nil {
		t.Fatal(err)
	}

	got, dir2, n := recoverSystem(t, path)
	defer dir2.Close()
	if n != 2 { // AddSource + 1 acknowledged append; the torn frame dropped
		t.Errorf("replayed %d WAL records, want 2", n)
	}
	if g := fingerprint(got); g != want {
		t.Errorf("recovered state differs:\n--- want ---\n%s\n--- got ---\n%s", want, g)
	}
	if got.Repo.Source("seqs").TupleCount != 30 {
		t.Errorf("recovered at tuple count %d, want 30 (batch boundary)", got.Repo.Source("seqs").TupleCount)
	}
}
