package core

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/metadata"
	"repro/internal/store"
)

// The kill-at-every-stage crash suite (ISSUE 6 satellite): a durable
// system is built, mutated, and "killed" at each failure point the
// durability layer exposes — mid-WAL-append, mid-segment-write,
// mid-links-write, mid-manifest-swap, after the swap but before the
// trim, and with a torn final WAL record — then recovered from the same
// directory. Recovery must restore exactly the acknowledged commits:
// the same sources, warehouse tuples, links, and feedback, with hash
// indexes rebuilt (a point query scans exactly one tuple).

func crashCfg() datagen.Config { return datagen.Config{Seed: 11, Proteins: 8} }

// durableSystem opens path as a data directory and integrates the first
// nsrc corpus sources through the journaled commit path.
func durableSystem(t *testing.T, path string, nsrc int) (*System, *store.Dir, *datagen.Corpus) {
	t.Helper()
	dir, err := store.OpenDir(path)
	if err != nil {
		t.Fatal(err)
	}
	sys := New(defaultOpts())
	sys.AttachDurable(dir)
	corpus := datagen.Generate(crashCfg())
	if nsrc <= 0 || nsrc > len(corpus.Sources) {
		nsrc = len(corpus.Sources)
	}
	for _, src := range corpus.Sources[:nsrc] {
		if _, err := sys.AddSource(src); err != nil {
			t.Fatalf("AddSource(%s): %v", src.Name, err)
		}
	}
	return sys, dir, corpus
}

// recoverSystem reopens path and rebuilds the system from its last
// checkpoint plus the WAL tail.
func recoverSystem(t *testing.T, path string) (*System, *store.Dir, int) {
	t.Helper()
	dir, err := store.OpenDir(path)
	if err != nil {
		t.Fatalf("reopening data directory: %v", err)
	}
	sys, n, err := Recover(defaultOpts(), dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return sys, dir, n
}

// checkpointNow runs a full begin/write checkpoint cycle.
func checkpointNow(t *testing.T, sys *System) *PendingCheckpoint {
	t.Helper()
	cp, err := sys.BeginCheckpoint()
	if err != nil {
		t.Fatalf("BeginCheckpoint: %v", err)
	}
	if err := sys.WriteCheckpoint(cp); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	return cp
}

func linkLines(links []metadata.Link) string {
	lines := make([]string, len(links))
	for i, l := range links {
		lines[i] = fmt.Sprintf("  %d %s -> %s %.4f %s", l.Type, l.From.Key(), l.To.Key(), l.Confidence, l.Method)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// fingerprint captures everything recovery must reproduce: the source
// set, every warehouse relation's cardinality, and the full link
// repository including feedback.
func fingerprint(s *System) string {
	var b strings.Builder
	names := s.Sources()
	sort.Strings(names)
	fmt.Fprintf(&b, "sources: %v\n", names)
	wh := s.WarehouseSnapshot()
	rels := wh.Names()
	sort.Strings(rels)
	for _, n := range rels {
		fmt.Fprintf(&b, "rel %s: %d tuples\n", n, len(wh.Relation(n).Tuples))
	}
	fmt.Fprintf(&b, "links:\n%s\n", linkLines(s.Repo.AllLinks()))
	fmt.Fprintf(&b, "removed:\n%s\n", linkLines(s.Repo.RemovedLinks()))
	return b.String()
}

// assertIndexedPointQuery verifies the §5 acceptance bar: after
// recovery the rebuilt hash indexes answer an accession point query by
// scanning exactly one tuple.
func assertIndexedPointQuery(t *testing.T, s *System) {
	t.Helper()
	wh := s.WarehouseSnapshot()
	r := wh.Relation("swissprot_protein")
	if r == nil || len(r.Tuples) == 0 {
		t.Fatal("swissprot_protein missing from recovered warehouse")
	}
	idx := r.Schema.Index("accession")
	if idx < 0 {
		t.Fatal("no accession column")
	}
	assertPointQueryScansOne(t, s, "swissprot_protein", "accession", r.Tuples[0][idx].AsString())
}

// firstRemovableLink picks a deterministic link to delete as feedback.
func firstRemovableLink(t *testing.T, s *System) metadata.Link {
	t.Helper()
	links := s.Repo.AllLinks()
	if len(links) == 0 {
		t.Fatal("no links to remove")
	}
	sort.Slice(links, func(i, j int) bool {
		return linkLines(links[i:i+1]) < linkLines(links[j:j+1])
	})
	return links[0]
}

// mutate applies one of each journaled mutation kind: a DML delete and
// a link-feedback removal. Returns the deleted accession.
func mutate(t *testing.T, sys *System) string {
	t.Helper()
	wh := sys.WarehouseSnapshot()
	r := wh.Relation("swissprot_protein")
	idx := r.Schema.Index("accession")
	acc := r.Tuples[len(r.Tuples)-1][idx].AsString()
	res, err := sys.Exec(fmt.Sprintf("DELETE FROM swissprot_protein WHERE accession = '%s'", acc))
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if res.Affected != 1 {
		t.Fatalf("delete affected %d rows, want 1", res.Affected)
	}
	victim := firstRemovableLink(t, sys)
	if ok, err := sys.RemoveLinkFeedback(victim); err != nil || !ok {
		t.Fatalf("RemoveLinkFeedback: ok=%v err=%v", ok, err)
	}
	return acc
}

// TestRecoverFromWALOnly replays a directory that has never
// checkpointed: every commit lives in the WAL tail.
func TestRecoverFromWALOnly(t *testing.T) {
	path := t.TempDir()
	sys, dir, _ := durableSystem(t, path, 3)
	mutate(t, sys)
	want := fingerprint(sys)
	removed := sys.Repo.RemovedLinks()
	if err := dir.Close(); err != nil {
		t.Fatal(err)
	}

	got, dir2, n := recoverSystem(t, path)
	defer dir2.Close()
	if n != 5 { // 3 AddSource + 1 DML + 1 feedback
		t.Errorf("replayed %d WAL records, want 5", n)
	}
	if g := fingerprint(got); g != want {
		t.Errorf("recovered state differs:\n--- want ---\n%s\n--- got ---\n%s", want, g)
	}
	assertIndexedPointQuery(t, got)
	// Feedback must be honored: the removed link stays removed and is
	// remembered so re-analysis cannot resurrect it.
	if len(removed) == 0 || linkLines(got.Repo.RemovedLinks()) != linkLines(removed) {
		t.Errorf("feedback lost: removed = %s", linkLines(got.Repo.RemovedLinks()))
	}
	for _, l := range got.Repo.AllLinks() {
		if linkLines([]metadata.Link{l}) == linkLines(removed[:1]) {
			t.Error("removed link resurrected by recovery")
		}
	}
}

// TestCheckpointThenRecover folds part of the history into segments and
// leaves the rest in the WAL tail; recovery stitches both together.
func TestCheckpointThenRecover(t *testing.T) {
	path := t.TempDir()
	sys, dir, _ := durableSystem(t, path, 3)
	checkpointNow(t, sys)
	if n := sys.WALRecordsSinceCheckpoint(); n != 0 {
		t.Fatalf("WAL records after checkpoint = %d", n)
	}
	mutate(t, sys)
	want := fingerprint(sys)
	if err := dir.Close(); err != nil {
		t.Fatal(err)
	}

	got, dir2, n := recoverSystem(t, path)
	defer dir2.Close()
	if n != 2 { // only the post-checkpoint DML + feedback replay
		t.Errorf("replayed %d WAL records, want 2", n)
	}
	if st := dir2.Stats(); st.Gen != 1 || st.Sources != 3 {
		t.Errorf("recovered dir stats = %+v", st)
	}
	if g := fingerprint(got); g != want {
		t.Errorf("recovered state differs:\n--- want ---\n%s\n--- got ---\n%s", want, g)
	}
	assertIndexedPointQuery(t, got)
}

// TestCrashMidWALAppend kills the append itself: the mutation is not
// acknowledged, the in-memory state is unchanged, and recovery ignores
// the torn frame.
func TestCrashMidWALAppend(t *testing.T) {
	path := t.TempDir()
	sys, dir, _ := durableSystem(t, path, 2)
	want := fingerprint(sys)
	wh := sys.WarehouseSnapshot()
	r := wh.Relation("swissprot_protein")
	acc := r.Tuples[0][r.Schema.Index("accession")].AsString()

	boom := errors.New("simulated crash")
	dir.Failpoint = func(stage string) error {
		if stage == "wal-append" {
			return boom
		}
		return nil
	}
	_, err := sys.Exec(fmt.Sprintf("DELETE FROM swissprot_protein WHERE accession = '%s'", acc))
	if !errors.Is(err, ErrDurability) {
		t.Fatalf("Exec under failpoint = %v, want ErrDurability", err)
	}
	if ok, err := sys.RemoveLinkFeedback(firstRemovableLink(t, sys)); err == nil || ok {
		t.Fatalf("RemoveLinkFeedback under failpoint: ok=%v err=%v", ok, err)
	}
	// Unacknowledged mutations must not be visible in memory either.
	if g := fingerprint(sys); g != want {
		t.Errorf("failed mutation leaked into live state:\n--- want ---\n%s\n--- got ---\n%s", want, g)
	}
	dir.Failpoint = nil
	if err := dir.Close(); err != nil {
		t.Fatal(err)
	}

	got, dir2, n := recoverSystem(t, path)
	defer dir2.Close()
	if n != 2 { // the two AddSource commits; both torn frames dropped
		t.Errorf("replayed %d WAL records, want 2", n)
	}
	if g := fingerprint(got); g != want {
		t.Errorf("recovered state differs:\n--- want ---\n%s\n--- got ---\n%s", want, g)
	}
	assertIndexedPointQuery(t, got)
}

// TestCrashAtEveryCheckpointStage kills the checkpoint at each stage —
// while a segment file is half-written, while the links segment is
// half-written, while the manifest swap is half-written, and after the
// swap but before the WAL trim — and verifies recovery lands on exactly
// the acknowledged state every time, and that the NEXT checkpoint (after
// the dirty set was merged back) succeeds.
func TestCrashAtEveryCheckpointStage(t *testing.T) {
	stages := []struct {
		name  string
		match func(stage string) bool
		// committed reports whether the manifest swap happened before the
		// kill (the checkpoint is durable despite the error).
		committed bool
	}{
		{"segment", func(s string) bool { return strings.HasPrefix(s, "segment:") }, false},
		{"links", func(s string) bool { return s == "links" }, false},
		{"manifest", func(s string) bool { return s == "manifest" }, false},
		{"trim", func(s string) bool { return s == "trim" }, true},
	}
	for _, stage := range stages {
		t.Run(stage.name, func(t *testing.T) {
			path := t.TempDir()
			sys, dir, _ := durableSystem(t, path, 2)
			mutate(t, sys)
			want := fingerprint(sys)

			boom := errors.New("simulated crash at " + stage.name)
			dir.Failpoint = func(s string) error {
				if stage.match(s) {
					return boom
				}
				return nil
			}
			cp, err := sys.BeginCheckpoint()
			if err != nil {
				t.Fatalf("BeginCheckpoint: %v", err)
			}
			if err := sys.WriteCheckpoint(cp); !errors.Is(err, boom) {
				t.Fatalf("WriteCheckpoint = %v, want injected crash", err)
			}
			dir.Failpoint = nil
			if err := dir.Close(); err != nil {
				t.Fatal(err)
			}

			got, dir2, _ := recoverSystem(t, path)
			if g := fingerprint(got); g != want {
				t.Errorf("recovered state differs:\n--- want ---\n%s\n--- got ---\n%s", want, g)
			}
			assertIndexedPointQuery(t, got)
			st := dir2.Stats()
			if stage.committed != (st.Gen > 0) {
				t.Errorf("checkpoint generation = %d after crash at %s", st.Gen, stage.name)
			}

			// The aborted checkpoint merged its dirty set back (or, for a
			// post-swap crash, recovery starts clean): a retry must both
			// succeed and leave a directory that recovers to the same state.
			checkpointNow(t, got)
			if err := dir2.Close(); err != nil {
				t.Fatal(err)
			}
			again, dir3, n := recoverSystem(t, path)
			defer dir3.Close()
			if n != 0 {
				t.Errorf("post-retry recovery replayed %d records, want 0", n)
			}
			if g := fingerprint(again); g != want {
				t.Errorf("post-retry state differs:\n--- want ---\n%s\n--- got ---\n%s", want, g)
			}
		})
	}
}

// TestTornFinalWALRecord truncates the live WAL mid-frame — the bytes a
// kill during the final append leaves behind. The torn record was never
// acknowledged, so recovery lands one commit earlier.
func TestTornFinalWALRecord(t *testing.T) {
	path := t.TempDir()
	sys, dir, _ := durableSystem(t, path, 2)
	wh := sys.WarehouseSnapshot()
	r := wh.Relation("swissprot_protein")
	tuples := len(r.Tuples)
	acc := r.Tuples[tuples-1][r.Schema.Index("accession")].AsString()
	if _, err := sys.Exec(fmt.Sprintf("DELETE FROM swissprot_protein WHERE accession = '%s'", acc)); err != nil {
		t.Fatal(err)
	}
	if err := dir.Close(); err != nil {
		t.Fatal(err)
	}

	wal := filepath.Join(path, "wal-00000001.log")
	fi, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	got, dir2, n := recoverSystem(t, path)
	defer dir2.Close()
	if n != 2 { // the DELETE's frame is torn; only the AddSource commits replay
		t.Errorf("replayed %d WAL records, want 2", n)
	}
	r2 := got.WarehouseSnapshot().Relation("swissprot_protein")
	if len(r2.Tuples) != tuples {
		t.Errorf("torn DELETE applied anyway: %d tuples, want %d", len(r2.Tuples), tuples)
	}
	assertIndexedPointQuery(t, got)
}

// segmentHashes maps each seg-*.seg file to its content hash.
func segmentHashes(t *testing.T, path string) map[string][32]byte {
	t.Helper()
	entries, err := os.ReadDir(path)
	if err != nil {
		t.Fatal(err)
	}
	hashes := make(map[string][32]byte)
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "seg-") || !strings.HasSuffix(e.Name(), ".seg") {
			continue
		}
		buf, err := os.ReadFile(filepath.Join(path, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		hashes[e.Name()] = sha256.Sum256(buf)
	}
	return hashes
}

// TestCheckpointRewritesOnlyDirtySegments is the incrementality
// acceptance bar: after a checkpoint, mutating ONE source and
// checkpointing again must rewrite that source's segment and nothing
// else — every clean source's segment file survives byte-identical.
func TestCheckpointRewritesOnlyDirtySegments(t *testing.T) {
	path := t.TempDir()
	sys, dir, _ := durableSystem(t, path, 3)
	defer dir.Close()
	if cp := checkpointNow(t, sys); cp.Dirty() != 3 {
		t.Fatalf("first checkpoint wrote %d sources, want 3", cp.Dirty())
	}
	before := segmentHashes(t, path)
	if len(before) != 3 {
		t.Fatalf("expected 3 segments, found %v", before)
	}

	// Dirty exactly one source.
	wh := sys.WarehouseSnapshot()
	r := wh.Relation("swissprot_protein")
	acc := r.Tuples[0][r.Schema.Index("accession")].AsString()
	if _, err := sys.Exec(fmt.Sprintf("DELETE FROM swissprot_protein WHERE accession = '%s'", acc)); err != nil {
		t.Fatal(err)
	}
	if cp := checkpointNow(t, sys); cp.Dirty() != 1 {
		t.Fatalf("incremental checkpoint wrote %d sources, want 1", cp.Dirty())
	}

	after := segmentHashes(t, path)
	if len(after) != 3 {
		t.Fatalf("expected 3 segments after incremental checkpoint, found %v", after)
	}
	var rewritten, reused int
	for name, h := range after {
		old, ok := before[name]
		switch {
		case !ok:
			rewritten++
			if !strings.Contains(name, "swissprot") {
				t.Errorf("clean source's segment rewritten: %s", name)
			}
		case old != h:
			t.Errorf("segment %s changed in place (segments are immutable)", name)
		default:
			reused++
		}
	}
	if rewritten != 1 || reused != 2 {
		t.Errorf("rewritten=%d reused=%d, want 1/2 (before=%v after=%v)", rewritten, reused, before, after)
	}
	// The dirty source's previous segment is unreferenced and trimmed.
	for name := range before {
		if _, live := after[name]; !live && !strings.Contains(name, "swissprot") {
			t.Errorf("clean source's segment %s disappeared", name)
		}
	}
}

// TestRecoveredCheckpointFoldsReplayedTail: after recovery the replayed
// sources are dirty, so the first checkpoint folds the whole tail into
// segments and the next start replays nothing.
func TestRecoveredCheckpointFoldsReplayedTail(t *testing.T) {
	path := t.TempDir()
	sys, dir, _ := durableSystem(t, path, 2)
	mutate(t, sys)
	want := fingerprint(sys)
	if err := dir.Close(); err != nil {
		t.Fatal(err)
	}

	got, dir2, _ := recoverSystem(t, path)
	if n := got.WALRecordsSinceCheckpoint(); n != 4 {
		t.Errorf("replay-tail counter = %d, want 4", n)
	}
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
		t.Errorf("state differs after fold:\n--- want ---\n%s\n--- got ---\n%s", want, g)
	}
}
