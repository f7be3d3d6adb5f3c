package core

import (
	"bytes"
	"context"
	"crypto/sha1"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dup"
	"repro/internal/linkdisc"
	"repro/internal/metadata"
	"repro/internal/rel"
	"repro/internal/search"
	"repro/internal/sqlx"
	"repro/internal/store"
)

// Tests of the single write path: every batch of source data — live,
// replayed or replicated — goes front door → Pending → publish, so a
// failure at any stage of either front door unwinds to the same state,
// and the same corpus reaches the same state through every door.

// fullFingerprint extends fingerprint with everything else an
// integration touches: per source the engine registration, registered
// tuple count, duplicate records, browse order and search hits, plus the
// sizes of the duplicate and search indexes. It is only comparable
// between systems that ran no DML (derived artifacts go stale by design
// until Reanalyze).
func fullFingerprint(s *System) string {
	var b strings.Builder
	b.WriteString(fingerprint(s))
	fmt.Fprintf(&b, "dup index: %d records\nsearch index: %d documents\n", s.dupIndex.Len(), s.index.Len())
	names := s.Sources()
	sort.Strings(names)
	for _, name := range names {
		var recs []string
		for _, r := range s.records[strings.ToLower(name)] {
			recs = append(recs, r.Accession)
		}
		var browse []string
		for _, ref := range s.Objects(name) {
			browse = append(browse, ref.Accession)
		}
		fmt.Fprintf(&b, "source %s: engine=%v tuples=%d\n  records %v\n  browse  %v\n",
			name, s.engine.Source(name) != nil, s.Repo.Source(name).TupleCount, recs, browse)
		if len(browse) == 0 {
			continue
		}
		for _, term := range []string{browse[0], browse[len(browse)-1]} {
			fmt.Fprintf(&b, "  search %q:", term)
			for _, hit := range s.Search(term, search.Filter{}, 4) {
				fmt.Fprintf(&b, " %s/%.3f", hit.Document.Object.Key(), hit.Score)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// door is one of the two front doors, driven against the matrix system.
type door struct {
	name    string
	prepare func(ctx context.Context, s *System, c *datagen.Corpus) (*Pending, error)
}

// pirHalves splits pir into the half the matrix system starts with and
// the half the append door adds.
func pirHalves(t *testing.T, c *datagen.Corpus) [2]*rel.Database {
	return splitDatabase(t, c.Source("pir"), "pir")
}

// matrixSystem is the durable system every matrix case starts from:
// swissprot plus the first half of pir, so both doors have another
// source to link against and pir has earlier batches to find duplicates
// in.
func matrixSystem(t *testing.T) (*System, *store.Dir, *datagen.Corpus) {
	t.Helper()
	dir, err := store.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dir.Close() })
	sys := New(defaultOpts())
	sys.AttachDurable(dir)
	c := datagen.Generate(crashCfg())
	for _, db := range []*rel.Database{c.Source("swissprot"), pirHalves(t, c)[0]} {
		if _, err := sys.AddSource(db); err != nil {
			t.Fatal(err)
		}
	}
	return sys, dir, c
}

// TestIntegrationFailureMatrix is the {create, append} × {failure mode}
// matrix: whatever goes wrong in prepare or at the journal write, the
// system is left exactly as it was, and an immediate retry succeeds and
// lands where a system that never failed lands.
func TestIntegrationFailureMatrix(t *testing.T) {
	doors := []door{
		{"create", func(ctx context.Context, s *System, c *datagen.Corpus) (*Pending, error) {
			return s.PrepareAdd(ctx, c.Source("pdb"))
		}},
		{"append", func(ctx context.Context, s *System, c *datagen.Corpus) (*Pending, error) {
			return s.PrepareAppend(ctx, "pir", pirHalves(t, c)[1])
		}},
	}
	boom := errors.New("injected failure")
	at := func(stage string, do func() error) func(string) error {
		return func(s string) error {
			if s == stage {
				return do()
			}
			return nil
		}
	}
	type injection struct {
		failpoint func(string) error // pipeline failpoint
		walError  bool               // fail the journal write at commit
		canceled  bool               // ctx canceled before the call
		abort     bool               // prepare succeeds, then Abort
	}
	modes := []struct {
		name   string
		inject func(cancel context.CancelFunc) injection
		// check validates the failed call's outcome.
		check func(err error, panicked any) bool
	}{
		{"fail at link-discovery",
			func(context.CancelFunc) injection {
				return injection{failpoint: at("link-discovery", func() error { return boom })}
			},
			func(err error, _ any) bool { return errors.Is(err, boom) }},
		{"fail at duplicate-detection",
			func(context.CancelFunc) injection {
				return injection{failpoint: at("duplicate-detection", func() error { return boom })}
			},
			func(err error, _ any) bool { return errors.Is(err, boom) }},
		{"ctx canceled before prepare",
			func(context.CancelFunc) injection { return injection{canceled: true} },
			func(err error, _ any) bool { return errors.Is(err, context.Canceled) }},
		// The failpoints cancel and return nil: the pipeline runs on until
		// its next context check, at the latest the one that ends prepare.
		{"ctx canceled at link-discovery",
			func(cancel context.CancelFunc) injection {
				return injection{failpoint: at("link-discovery", func() error { cancel(); return nil })}
			},
			func(err error, _ any) bool { return errors.Is(err, context.Canceled) }},
		{"ctx canceled at duplicate-detection",
			func(cancel context.CancelFunc) injection {
				return injection{failpoint: at("duplicate-detection", func() error { cancel(); return nil })}
			},
			func(err error, _ any) bool { return errors.Is(err, context.Canceled) }},
		// internal/parallel re-raises a worker's panic on the goroutine
		// running the pipeline, which is where these land.
		{"panic at link-discovery",
			func(context.CancelFunc) injection {
				return injection{failpoint: at("link-discovery", func() error { panic("injected panic") })}
			},
			func(_ error, panicked any) bool { return panicked == "injected panic" }},
		{"panic at duplicate-detection",
			func(context.CancelFunc) injection {
				return injection{failpoint: at("duplicate-detection", func() error { panic("injected panic") })}
			},
			func(_ error, panicked any) bool { return panicked == "injected panic" }},
		{"WAL append error at commit",
			func(context.CancelFunc) injection { return injection{walError: true} },
			func(err error, _ any) bool { return errors.Is(err, ErrDurability) && errors.Is(err, boom) }},
		{"Abort after prepare",
			func(context.CancelFunc) injection { return injection{abort: true} },
			func(err error, _ any) bool { return err == nil }},
	}

	integrate := func(ctx context.Context, d door, s *System, c *datagen.Corpus) (*AddReport, error) {
		p, err := d.prepare(ctx, s, c)
		if err != nil {
			return nil, err
		}
		return s.Commit(p)
	}
	for _, d := range doors {
		for _, m := range modes {
			t.Run(d.name+"/"+m.name, func(t *testing.T) {
				sys, dir, corpus := matrixSystem(t)
				control, _, controlCorpus := matrixSystem(t)
				before, seq := fullFingerprint(sys), sys.SnapshotSeq()

				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				inj := m.inject(cancel)
				sys.SetFailpoint(inj.failpoint)
				if inj.canceled {
					cancel()
				}
				if inj.walError {
					dir.Failpoint = at("wal-append", func() error { return boom })
				}
				var err error
				var panicked any
				func() {
					defer func() { panicked = recover() }()
					if inj.abort {
						var p *Pending
						if p, err = d.prepare(ctx, sys, corpus); err == nil {
							sys.Abort(p)
							_, cerr := sys.Commit(p)
							if cerr == nil {
								t.Error("Commit after Abort succeeded")
							}
						}
						return
					}
					_, err = integrate(ctx, d, sys, corpus)
				}()
				if !m.check(err, panicked) {
					t.Fatalf("failed call: err = %v, panic = %v", err, panicked)
				}
				sys.SetFailpoint(nil)
				dir.Failpoint = nil
				if got := fullFingerprint(sys); got != before {
					t.Errorf("state changed by the failed call:\n--- before ---\n%s\n--- after ---\n%s", before, got)
				}
				if got := sys.SnapshotSeq(); got != seq {
					t.Errorf("mutation sequence moved by the failed call: %d -> %d", seq, got)
				}

				rep, err := integrate(context.Background(), d, sys, corpus)
				if err != nil {
					t.Fatalf("retry: %v", err)
				}
				crep, err := integrate(context.Background(), d, control, controlCorpus)
				if err != nil {
					t.Fatalf("control: %v", err)
				}
				if rep.DupStats != crep.DupStats || rep.LinkStats != crep.LinkStats {
					t.Errorf("retry stats %+v %+v differ from control %+v %+v (failed attempt not unwound)",
						rep.DupStats, rep.LinkStats, crep.DupStats, crep.LinkStats)
				}
				if rep.Seq != seq+1 {
					t.Errorf("retry committed at sequence %d, want %d", rep.Seq, seq+1)
				}
				if got, want := fullFingerprint(sys), fullFingerprint(control); got != want {
					t.Errorf("retried state differs from control:\n--- control ---\n%s\n--- retried ---\n%s", want, got)
				}
			})
		}
	}
}

// alpha turns (name, i, k) into a lower-case word no other call yields:
// text that shares no token with any other record, so neither text
// similarity nor duplicate scoring depends on which records happen to
// share a batch.
func alpha(name string, i, k int) string {
	sum := sha1.Sum([]byte(fmt.Sprintf("%s/%d/%d", name, i, k)))
	w := make([]byte, 10)
	for j := range w {
		w[j] = 'a' + sum[j]%26
	}
	return string(w)
}

// linkedBatch builds records from..from+n-1 of a hand-made source: a
// primary "entry" relation and a dependent "note" relation, each entry
// with a free-text comment and optionally cross-referencing an entry of
// another source, the one named by refPrefix in lower case. Every
// reference resolves, so a cross-reference column matches fully in any
// batch and discovery's verdict does not depend on batch boundaries —
// and every reference points into the target's first batch: accessions a
// source gains by append are not cross-reference targets yet (a source's
// accession set is its first batch's profile's; ROADMAP item 2(b)),
// which is a property of discovery, not of the door taken. The comment
// names, by its label, an entry of the referenced source's last batch:
// the names a source gains by append are entity-link targets at once.
func linkedBatch(name, prefix, refPrefix string, from, n int) *rel.Database {
	db := rel.NewDatabase(name)
	cols := []string{"entry_id", "acc", "label", "comment"}
	if refPrefix != "" {
		cols = append(cols, "ref")
	}
	entry := db.Create("entry", rel.TextSchema(cols...))
	note := db.Create("note", rel.TextSchema("note_id", "entry_id", "note_text"))
	label := func(name string, i int) string { return alpha(name, i, 0) + " " + alpha(name, i, 3) }
	for i := from; i < from+n; i++ {
		row := []string{fmt.Sprint(i + 1), fmt.Sprintf("%s%04d", prefix, i), label(name, i),
			"notes about entry " + alpha(name, i, 4)}
		if refPrefix != "" {
			row[3] = "cites " + label(strings.ToLower(refPrefix), linkedRecords-1-i%linkedBatchSz) + " again"
			row = append(row, fmt.Sprintf("%s%04d", refPrefix, i/2%4))
		}
		entry.AppendRaw(row...)
		note.AppendRaw(fmt.Sprint(2*i+1), fmt.Sprint(i+1), alpha(name, i, 1))
		note.AppendRaw(fmt.Sprint(2*i+2), fmt.Sprint(i+1), alpha(name, i, 2))
	}
	return db
}

// linkedCorpus lists the three sources of the equivalence test.
var linkedCorpus = []struct{ name, prefix, refPrefix string }{
	{"aa", "AA", ""},
	{"bb", "BB", "AA"},
	{"cc", "CC", "BB"},
}

const (
	linkedRecords = 24
	linkedBatchSz = 8
)

func linkedOpts() Options {
	// Text links and the similarity of near-duplicates are scored against
	// corpus-wide term statistics, which do depend on what shares a batch;
	// the equivalence is about doors, not about those heuristics, so they
	// are left off (and duplicates exact, of which the corpus has none).
	// Entity links depend on the target's dictionary alone, which every
	// batch grows, so they stay on with cross-references.
	return Options{
		Links:      linkdisc.Options{DisableTextLinks: true},
		Duplicates: dup.Options{Threshold: 0.95},
	}
}

// streamLinked integrates the corpus batch by batch: the first batch of
// each source through PrepareAdd, the rest through PrepareAppend.
// afterBatch runs after every commit.
func streamLinked(t *testing.T, sys *System, afterBatch func(source string, batch int)) {
	t.Helper()
	ctx := context.Background()
	for _, src := range linkedCorpus {
		for b := 0; b*linkedBatchSz < linkedRecords; b++ {
			batch := linkedBatch(src.name, src.prefix, src.refPrefix, b*linkedBatchSz, linkedBatchSz)
			var err error
			if b == 0 {
				_, err = sys.AddSourceContext(ctx, batch)
			} else {
				_, err = sys.AppendToSource(ctx, src.name, batch)
			}
			if err != nil {
				t.Fatalf("%s batch %d: %v", src.name, b, err)
			}
			if afterBatch != nil {
				afterBatch(src.name, b)
			}
		}
	}
}

// assertPointQueryScansOne checks that table's accession index answers
// a point query by reading exactly one tuple.
func assertPointQueryScansOne(t *testing.T, s *System, table, column, value string) {
	t.Helper()
	wh := s.WarehouseSnapshot()
	plan, err := sqlx.Prepare(wh, fmt.Sprintf("SELECT * FROM %s WHERE %s = '%s'", table, column, value))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := plan.Open(context.Background(), wh)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for {
		if _, err := cur.Next(context.Background()); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		rows++
	}
	if rows != 1 || cur.Scanned() != 1 {
		t.Fatalf("point query on %s: %d rows, %d tuples scanned, want 1 and 1", table, rows, cur.Scanned())
	}
}

// copyDir copies a data directory's files into a fresh temp directory.
func copyDir(t *testing.T, from string) string {
	t.Helper()
	to := t.TempDir()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		buf, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return to
}

// followFrames applies every frame the primary's directory holds past
// the replica's applied sequence, one by one, the way a replica does.
func followFrames(t *testing.T, replica *System, primary *store.Dir) {
	t.Helper()
	frames, _, err := primary.FramesSince(replica.SnapshotSeq(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for len(frames) > 0 {
		rec, n, err := store.DecodeFrame(frames)
		if err != nil {
			t.Fatal(err)
		}
		if err := replica.ApplyReplicated(frames[:n], rec); err != nil {
			t.Fatalf("ApplyReplicated(seq %d): %v", rec.Seq, err)
		}
		frames = frames[n:]
	}
}

// emptyReplica opens a fresh directory as a replica of nothing yet.
func emptyReplica(t *testing.T, opts Options) *System {
	t.Helper()
	dir, err := store.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dir.Close() })
	replica, _, err := Recover(opts, dir)
	if err != nil {
		t.Fatal(err)
	}
	replica.DisableJournal()
	return replica
}

// TestFiveDoorsOneState integrates one corpus (a) whole-file, (b) first
// batch + appends, (c) recovered from the WAL alone, (d) recovered from
// a checkpoint plus the WAL tail, (e) applied on a replica frame by
// frame — and requires five identical systems, each with its hash
// indexes in place.
func TestFiveDoorsOneState(t *testing.T) {
	whole := New(linkedOpts())
	for _, src := range linkedCorpus {
		if _, err := whole.AddSource(linkedBatch(src.name, src.prefix, src.refPrefix, 0, linkedRecords)); err != nil {
			t.Fatal(err)
		}
	}
	want := fullFingerprint(whole)
	if n := whole.Repo.LinkCount(metadata.LinkXRef); n != 2*linkedRecords {
		t.Fatalf("corpus produced %d cross-references, want %d:\n%s", n, 2*linkedRecords, want)
	}
	if n := whole.Repo.LinkCount(metadata.LinkText); n != 2*linkedRecords {
		t.Fatalf("corpus produced %d entity links, want %d:\n%s", n, 2*linkedRecords, want)
	}

	primaryPath := t.TempDir()
	primaryDir, err := store.OpenDir(primaryPath)
	if err != nil {
		t.Fatal(err)
	}
	defer primaryDir.Close()
	streamed := New(linkedOpts())
	streamed.AttachDurable(primaryDir)
	streamLinked(t, streamed, nil)

	replica := emptyReplica(t, linkedOpts())
	followFrames(t, replica, primaryDir)

	recoverCopy := func(path string) *System {
		dir, err := store.OpenDir(copyDir(t, path))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dir.Close() })
		sys, _, err := Recover(linkedOpts(), dir)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	fromWAL := recoverCopy(primaryPath)

	// A second primary checkpoints mid-way: bb's segment is written with
	// one appended batch folded in, its last batch and all of cc stay in
	// the WAL tail.
	checkpointedPath := t.TempDir()
	checkpointedDir, err := store.OpenDir(checkpointedPath)
	if err != nil {
		t.Fatal(err)
	}
	defer checkpointedDir.Close()
	checkpointed := New(linkedOpts())
	checkpointed.AttachDurable(checkpointedDir)
	streamLinked(t, checkpointed, func(source string, batch int) {
		if source == "bb" && batch == 1 {
			checkpointNow(t, checkpointed)
		}
	})
	fromCheckpoint := recoverCopy(checkpointedPath)

	for _, tc := range []struct {
		door string
		sys  *System
	}{
		{"whole-file", whole},
		{"first batch + appends", streamed},
		{"recovered from WAL", fromWAL},
		{"recovered from checkpoint + WAL tail", fromCheckpoint},
		{"replica, frame by frame", replica},
	} {
		if got := fullFingerprint(tc.sys); got != want {
			t.Errorf("%s differs from whole-file:\n--- whole-file ---\n%s\n--- %s ---\n%s", tc.door, want, tc.door, got)
		}
		assertPointQueryScansOne(t, tc.sys, "bb_entry", "acc", "BB0013")
	}
	if a, b := streamed.SnapshotSeq(), replica.SnapshotSeq(); a != b || a != fromWAL.SnapshotSeq() || a != fromCheckpoint.SnapshotSeq() {
		t.Errorf("sequences differ: primary %d, replica %d, from WAL %d, from checkpoint %d",
			a, b, fromWAL.SnapshotSeq(), fromCheckpoint.SnapshotSeq())
	}
}

// TestReplayRunsNoPipeline: recovering a source from segments or WAL
// records, or applying it on a replica, must not run link discovery or
// duplicate comparison — both live in the prepare body, whose stages
// fire the failpoint.
func TestReplayRunsNoPipeline(t *testing.T) {
	path := t.TempDir()
	dir, err := store.OpenDir(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	primary := New(linkedOpts())
	primary.AttachDurable(dir)
	streamLinked(t, primary, func(source string, batch int) {
		if source == "aa" && batch == 2 {
			checkpointNow(t, primary) // aa comes back from a segment
		}
	})
	trap := func(stage string) error {
		t.Errorf("pipeline stage %q ran during replay", stage)
		return nil
	}

	// Recover's two halves, on a system with the trap installed.
	rdir, err := store.OpenDir(copyDir(t, path))
	if err != nil {
		t.Fatal(err)
	}
	defer rdir.Close()
	snap, err := rdir.Load()
	if err != nil {
		t.Fatal(err)
	}
	recovered := New(linkedOpts())
	recovered.SetFailpoint(trap)
	recovered.durable = &durable{dir: rdir, dirty: make(map[string]bool)}
	recovered.seq.Store(rdir.ManifestCopy().RecordSeq)
	if err := recovered.load(snap); err != nil {
		t.Fatal(err)
	}
	if n, err := rdir.Replay(recovered.applyWAL); err != nil || n != 6 {
		t.Fatalf("replayed %d records (%v), want 6", n, err)
	}
	if got, want := fullFingerprint(recovered), fullFingerprint(primary); got != want {
		t.Errorf("recovered state differs:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}

	// The replica bootstraps from the segments, then follows the tail.
	replica := emptyReplica(t, linkedOpts())
	replica.SetFailpoint(trap)
	replica.seq.Store(dir.ManifestCopy().RecordSeq)
	if err := replica.load(snap); err != nil {
		t.Fatal(err)
	}
	followFrames(t, replica, dir)
	if got, want := fullFingerprint(replica), fullFingerprint(primary); got != want {
		t.Errorf("replica state differs:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

// TestBatchJournalsOnlyItsOntologyLinks: the shared-term links are
// derived anew from the whole repository for every integration, but a
// batch journals only those it adds or upgrades. On the datagen corpus,
// a FASTA source and a batch appended to it bring no shared term, so
// their frames carry no ontology link, and recovery from the journal
// still lands on the live state.
func TestBatchJournalsOnlyItsOntologyLinks(t *testing.T) {
	path := t.TempDir()
	dir, err := store.OpenDir(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	sys := New(defaultOpts())
	sys.AttachDurable(dir)
	for _, db := range datagen.Generate(datagen.Config{Seed: 7, Proteins: 60}).Sources {
		if _, err := sys.AddSource(db); err != nil {
			t.Fatal(err)
		}
	}
	if sys.Repo.LinkCount(metadata.LinkOntology) == 0 {
		t.Fatal("the corpus derived no ontology links")
	}
	corpusSeq := sys.SnapshotSeq()
	if _, err := sys.AddSource(fastaBatch(t, "seqs", 0, 20)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AppendToSource(context.Background(), "seqs", fastaBatch(t, "seqs", 20, 20)); err != nil {
		t.Fatal(err)
	}
	frames, _, err := dir.FramesSince(corpusSeq, 0)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; len(frames) > 0; n++ {
		rec, size, err := store.DecodeFrame(frames)
		if err != nil {
			t.Fatal(err)
		}
		ontology := 0
		for _, l := range rec.Links {
			if l.Type == metadata.LinkOntology {
				ontology++
			}
		}
		if ontology != 0 {
			t.Errorf("frame %d (%s) carries %d ontology links of %d, want 0", n, rec.Source.Name, ontology, len(rec.Links))
		}
		frames = frames[size:]
	}
	want := fullFingerprint(sys)
	recovered, rdir, _ := recoverSystem(t, copyDir(t, path))
	defer rdir.Close()
	if got := fullFingerprint(recovered); got != want {
		t.Errorf("recovered from the journal differs from live:\n--- live ---\n%s\n--- recovered ---\n%s", want, got)
	}
}

// TestRestoreRejectsSourceWithoutStructure: a persisted source the
// system does not hold must carry its discovered structure — a segment
// without one, or an appended batch for a source that was never
// created, is a typed error instead of a silent re-derivation.
func TestRestoreRejectsSourceWithoutStructure(t *testing.T) {
	sys := New(defaultOpts())
	if _, err := sys.AddSource(fastaBatch(t, "seqs", 0, 10)); err != nil {
		t.Fatal(err)
	}
	snap := sys.Snapshot()
	snap.Sources[0].Structure = nil
	if _, err := Load(defaultOpts(), snap); !errors.Is(err, ErrNoStructure) {
		t.Errorf("Load of a segment without structure = %v, want ErrNoStructure", err)
	}

	before := fullFingerprint(sys)
	orphan := &store.WALRecord{Type: store.RecAppend, Source: &store.SourceSnapshot{
		Name: "nosuch", Relations: store.SnapshotDatabase(fastaBatch(t, "nosuch", 0, 5)),
	}}
	if err := sys.applyWAL(orphan); !errors.Is(err, ErrNoStructure) {
		t.Errorf("append record for an unknown source = %v, want ErrNoStructure", err)
	}
	again := &store.WALRecord{Type: store.RecAddSource, Source: &sys.Snapshot().Sources[0]}
	if err := sys.applyWAL(again); !errors.Is(err, ErrSourceExists) {
		t.Errorf("AddSource record for a held source = %v, want ErrSourceExists", err)
	}
	if got := fullFingerprint(sys); got != before {
		t.Errorf("rejected records changed the system:\n--- before ---\n%s\n--- after ---\n%s", before, got)
	}
}

// TestRecoversParentDataDirectory: testdata/parent-datadir was written
// by the commit before the write paths were unified (AddSource seqs,
// AddSource copy, two appends to seqs, checkpoint, one more append).
// Segments and records must stay readable, and a batch prepared today
// must journal the very value that commit journaled.
func TestRecoversParentDataDirectory(t *testing.T) {
	path := copyDir(t, filepath.Join("testdata", "parent-datadir"))
	want, err := os.ReadFile(filepath.Join("testdata", "parent-datadir.fingerprint"))
	if err != nil {
		t.Fatal(err)
	}
	parentWAL, err := os.ReadFile(filepath.Join(path, "wal-00000002.log"))
	if err != nil {
		t.Fatal(err)
	}
	got, dir, n := recoverSystem(t, path)
	defer dir.Close()
	if n != 1 {
		t.Errorf("replayed %d WAL records, want 1 (the append after the checkpoint)", n)
	}
	if g := fingerprint(got); g != string(want) {
		t.Errorf("recovered state differs from the parent's:\n--- parent ---\n%s\n--- recovered ---\n%s", want, g)
	}
	assertPointQueryScansOne(t, got, "seqs_fasta", "accession", "SQ000023")

	// Rebuild the same history on this commit and compare the last
	// append's frame with the parent's. (RecAddSource payloads hold
	// gob-encoded maps, whose order varies run to run, so only the
	// RecAppend frame can be pinned.) A gob stream sends the descriptors
	// of every type in WALRecord's graph before the value, so a field
	// added to or dropped from a type that this record leaves nil (a
	// profile, an IND) changes the frame but not its value message: that
	// last message must be byte-identical, and both frames must decode
	// to the same record.
	live, err := store.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	sys := New(defaultOpts())
	sys.AttachDurable(live)
	ctx := context.Background()
	for _, db := range []*rel.Database{fastaBatch(t, "seqs", 0, 10), fastaBatch(t, "copy", 0, 6)} {
		if _, err := sys.AddSource(db); err != nil {
			t.Fatal(err)
		}
	}
	for _, start := range []int{10, 15, 20} {
		if _, err := sys.AppendToSource(ctx, "seqs", fastaBatch(t, "seqs", start, 5)); err != nil {
			t.Fatal(err)
		}
	}
	frame, _, err := live.FramesSince(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	const walMagic = "ALWAL2\n"
	if !bytes.HasPrefix(parentWAL, []byte(walMagic)) {
		t.Fatalf("parent WAL does not start with %q", walMagic)
	}
	parentFrame := parentWAL[len(walMagic):]
	if _, n, err := store.ScanFrame(parentFrame); err != nil || n != len(parentFrame) {
		t.Fatalf("parent WAL holds %d bytes after its magic, want one frame (%d bytes, %v)", len(parentFrame), n, err)
	}
	if _, n, err := store.ScanFrame(frame); err != nil || n != len(frame) {
		t.Fatalf("journal since sequence 4 holds %d bytes, want one frame (%d bytes, %v)", len(frame), n, err)
	}
	value, parentValue := lastGobMessage(t, frame[16:]), lastGobMessage(t, parentFrame[16:])
	if !bytes.Equal(value, parentValue) {
		t.Errorf("RecAppend value message differs from the parent's (%d bytes here, %d there)", len(value), len(parentValue))
	}
	rec, _, err := store.DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	parentRec, _, err := store.DecodeFrame(parentFrame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, parentRec) {
		t.Errorf("RecAppend record differs from the parent's:\n here %+v\nthere %+v", rec, parentRec)
	}
}

// lastGobMessage returns the last message of a gob stream: each message
// is its byte count, a gob unsigned integer (one byte below 128, else
// the negated length of a big-endian count that follows), then the
// bytes. A stream's last message is its value, after the type
// descriptors.
func lastGobMessage(t *testing.T, stream []byte) []byte {
	t.Helper()
	var last []byte
	for len(stream) > 0 {
		n, w := uint64(stream[0]), 1
		if n >= 128 {
			w = 1 + int(-int8(stream[0]))
			if w > len(stream) || w > 9 {
				t.Fatalf("torn gob message count")
			}
			n = 0
			for _, b := range stream[1:w] {
				n = n<<8 | uint64(b)
			}
		}
		if uint64(len(stream)-w) < n {
			t.Fatalf("gob message of %d bytes, %d left", n, len(stream)-w)
		}
		last, stream = stream[w:w+int(n)], stream[w+int(n):]
	}
	return last
}

// TestReanalyzeIsDurable: a re-analysis is a mutation like any other —
// journaled before it is published, one sequence number, source dirty.
// DML plants a new cross-reference, Reanalyze turns it into a link, and
// the process dies without a checkpoint: recovery and a following
// replica must both have the link and the reset change counter.
func TestReanalyzeIsDurable(t *testing.T) {
	path := t.TempDir()
	sys, dir, _ := durableSystem(t, path, 2) // swissprot, pdb
	replica := emptyReplica(t, defaultOpts())
	followFrames(t, replica, dir)

	// P10000 gains a reference to a structure it is not linked to yet.
	structures := sys.WarehouseSnapshot().Relation("pdb_structure")
	code := structures.Tuples[len(structures.Tuples)-1][structures.Schema.Index("pdb_code")].AsString()
	from := metadata.ObjectRef{Source: "swissprot", Relation: "protein", Accession: "P10000"}
	to := metadata.ObjectRef{Source: "pdb", Relation: "structure", Accession: code}
	hasLink := func(s *System) bool {
		for _, l := range s.Repo.LinksOf(from) {
			if l.Type == metadata.LinkXRef && l.To == to {
				return true
			}
		}
		return false
	}
	if hasLink(sys) {
		t.Fatalf("P10000 already references %s", code)
	}
	if _, err := sys.Exec(fmt.Sprintf("INSERT INTO swissprot_dbref VALUES ('9001', '1', '%s')", code)); err != nil {
		t.Fatal(err)
	}
	if sys.Repo.Source("swissprot").ChangedTuples != 1 {
		t.Fatalf("change counter = %d, want 1", sys.Repo.Source("swissprot").ChangedTuples)
	}

	seq := sys.SnapshotSeq()
	rep, err := sys.Reanalyze("swissprot")
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.SnapshotSeq(); got != seq+1 || rep.Seq != got {
		t.Errorf("sequence %d -> %d (report says %d), want exactly one step", seq, got, rep.Seq)
	}
	if !hasLink(sys) || rep.LinksAdded["xref"] == 0 {
		t.Fatalf("re-analysis did not find the new cross-reference (added %v)", rep.LinksAdded)
	}
	if st, _ := sys.DurabilityStats(); st.DirtySources == 0 || st.WALRecords != 4 {
		t.Errorf("after re-analysis: %d dirty sources, %d WAL records, want > 0 and 4", st.DirtySources, st.WALRecords)
	}
	want := fingerprint(sys)

	// A failed journal write leaves everything as it was.
	boom := errors.New("simulated crash")
	dir.Failpoint = func(stage string) error {
		if stage == "wal-append" {
			return boom
		}
		return nil
	}
	if _, err := sys.Reanalyze("pdb"); !errors.Is(err, ErrDurability) {
		t.Errorf("Reanalyze under a failing journal = %v, want ErrDurability", err)
	}
	if g := fingerprint(sys); g != want || sys.SnapshotSeq() != seq+1 {
		t.Errorf("unjournaled re-analysis leaked into live state (sequence %d)", sys.SnapshotSeq())
	}
	dir.Failpoint = nil

	// The follower sees the DML and the re-analysis as frames 3 and 4.
	// (Its copy of the torn frame above is never returned: FramesSince
	// stops at the first frame that fails validation.)
	followFrames(t, replica, dir)
	// Kill: no checkpoint, just the WAL.
	if err := dir.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, rdir, n := recoverSystem(t, path)
	defer rdir.Close()
	if n != 4 {
		t.Errorf("replayed %d WAL records, want 4 (two sources, DML, re-analysis)", n)
	}
	for name, s := range map[string]*System{"recovered": recovered, "replica": replica} {
		if g := fingerprint(s); g != want {
			t.Errorf("%s differs from the primary:\n--- primary ---\n%s\n--- %s ---\n%s", name, want, name, g)
		}
		if !hasLink(s) {
			t.Errorf("%s lost the re-analyzed link", name)
		}
		if c := s.Repo.Source("swissprot").ChangedTuples; c != 0 {
			t.Errorf("%s: change counter = %d, want 0 after the replayed re-analysis", name, c)
		}
		if s.SnapshotSeq() != seq+1 {
			t.Errorf("%s at sequence %d, want %d", name, s.SnapshotSeq(), seq+1)
		}
	}
}

// TestReanalyzeRepublishesBrowse: the structure a re-analysis discovers
// governs browsing at once, as it does after a restart. Rows that break
// the keyword → protein inclusion dependency make the re-analysis drop
// the keyword path; the live node, a recovery from the WAL alone and a
// recovery from a checkpoint must then browse the same annotations, and
// none from a relation the structure no longer reaches.
func TestReanalyzeRepublishesBrowse(t *testing.T) {
	path := t.TempDir()
	sys, dir, _ := durableSystem(t, path, 1) // swissprot
	for i := range 5 {
		if _, err := sys.Exec(fmt.Sprintf("INSERT INTO swissprot_keyword VALUES ('999%d', 'NOPE%d', 'x')", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.Reanalyze("swissprot"); err != nil {
		t.Fatal(err)
	}
	structure := sys.Repo.Source("swissprot").Structure
	if _, ok := structure.Paths["keyword"]; ok {
		t.Fatal("re-analysis kept the keyword path; the test needs it dropped")
	}

	ref := metadata.ObjectRef{Source: "swissprot", Relation: "protein", Accession: "P10000"}
	annotations := func(s *System) string {
		v, err := s.Browse(ref)
		if err != nil {
			t.Fatal(err)
		}
		lines := make([]string, len(v.Annotations))
		for i, a := range v.Annotations {
			if _, ok := structure.Paths[strings.ToLower(a.Relation)]; !ok {
				t.Errorf("annotation from %s, which the re-analyzed structure has no path to", a.Relation)
			}
			lines[i] = fmt.Sprintf("%s %v", a.Relation, a.Fields)
		}
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	want := annotations(sys)

	walOnly := copyDir(t, path)
	checkpointNow(t, sys)
	if err := dir.Close(); err != nil {
		t.Fatal(err)
	}
	fromWAL, wdir, _ := recoverSystem(t, walOnly)
	defer wdir.Close()
	fromCheckpoint, cdir, _ := recoverSystem(t, path)
	defer cdir.Close()
	for name, s := range map[string]*System{"recovered from WAL": fromWAL, "recovered from checkpoint": fromCheckpoint} {
		if got := annotations(s); got != want {
			t.Errorf("%s browses other annotations than the live node:\n--- live ---\n%s\n--- %s ---\n%s", name, want, name, got)
		}
	}
}
