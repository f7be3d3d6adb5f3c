package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func appendRecord(t *testing.T, d *Dir, rec *WALRecord) {
	t.Helper()
	frame, err := EncodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Append(frame, rec.Seq); err != nil {
		t.Fatal(err)
	}
}

func TestOpenDirFreshInit(t *testing.T) {
	path := t.TempDir()
	d, err := OpenDir(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	st := d.Stats()
	if st.Gen != 0 || st.WALSeq != 1 || st.Sources != 0 || st.WALRecords != 0 {
		t.Errorf("fresh stats = %+v", st)
	}
	if _, err := os.Stat(filepath.Join(path, ManifestName)); err != nil {
		t.Errorf("manifest not initialized: %v", err)
	}
	if _, err := os.Stat(filepath.Join(path, "wal-00000001.log")); err != nil {
		t.Errorf("WAL not initialized: %v", err)
	}
}

func TestDirAppendReplayAcrossReopen(t *testing.T) {
	path := t.TempDir()
	d, err := OpenDir(path)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	for _, rec := range want {
		appendRecord(t, d, rec)
	}
	d.Close()

	d2, err := OpenDir(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	var got []*WALRecord
	n, err := d2.Replay(func(rec *WALRecord) error { got = append(got, rec); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want) || len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", n, len(want))
	}
	if got[1].Type != RecDML || got[1].SQL != want[1].SQL {
		t.Errorf("replayed record 1 = %+v", got[1])
	}
	// Replay is one-shot: the buffer drops.
	if n, _ := d2.Replay(func(*WALRecord) error { return nil }); n != 0 {
		t.Errorf("second replay saw %d records", n)
	}
}

func TestDirCheckpointLoadAndTrim(t *testing.T) {
	path := t.TempDir()
	d, err := OpenDir(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	for _, rec := range recs {
		appendRecord(t, d, rec)
	}

	seq, err := d.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("rotated to seq %d, want 2", seq)
	}
	// A record arriving after the rotation lands in the new WAL and must
	// survive the checkpoint's trim.
	appendRecord(t, d, &WALRecord{Seq: 4, Type: RecDML, SourceName: "src", SQL: "post-rotate"})

	ss := *recs[0].Source
	if err := d.CompleteCheckpoint(&CheckpointData{
		Dirty:     []SourceSnapshot{ss},
		Order:     []string{"src"},
		WALSeq:    seq,
		RecordSeq: 3,
		Links:     recs[0].Links,
		Removed:   nil,
	}); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Gen != 1 || st.WALSeq != 2 || st.Sources != 1 {
		t.Errorf("post-checkpoint stats = %+v", st)
	}
	if _, err := os.Stat(filepath.Join(path, "wal-00000001.log")); !os.IsNotExist(err) {
		t.Errorf("subsumed WAL not trimmed: %v", err)
	}
	d.Close()

	d2, err := OpenDir(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	snap, err := d2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Sources) != 1 || snap.Sources[0].Name != "src" || len(snap.Links) != 1 {
		t.Fatalf("loaded checkpoint = %d sources / %d links", len(snap.Sources), len(snap.Links))
	}
	n, err := d2.Replay(func(rec *WALRecord) error {
		if rec.SQL != "post-rotate" {
			t.Errorf("unexpected tail record %+v", rec)
		}
		return nil
	})
	if err != nil || n != 1 {
		t.Fatalf("tail replay n=%d err=%v", n, err)
	}
}

// Files a crash can leave behind — temp files, WAL files below the
// manifest's live sequence, segments no manifest references — are
// removed at open and never read.
func TestOpenDirCleansLeftovers(t *testing.T) {
	path := t.TempDir()
	d, err := OpenDir(path)
	if err != nil {
		t.Fatal(err)
	}
	d.Close()

	for _, name := range []string{"seg-ghost-00000000-00000001.seg.tmp", "seg-ghost-00000000-00000001.seg", "wal-00000000.log"} {
		if err := os.WriteFile(filepath.Join(path, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d2, err := OpenDir(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for _, name := range []string{"seg-ghost-00000000-00000001.seg.tmp", "seg-ghost-00000000-00000001.seg", "wal-00000000.log"} {
		if _, err := os.Stat(filepath.Join(path, name)); !os.IsNotExist(err) {
			t.Errorf("leftover %s survived reopen", name)
		}
	}
}

// The wal-append failpoint simulates a crash mid-append: the caller gets
// an error (no acknowledgement) and reopening finds a clean log with the
// torn frame truncated.
func TestDirWALAppendFailpoint(t *testing.T) {
	path := t.TempDir()
	d, err := OpenDir(path)
	if err != nil {
		t.Fatal(err)
	}
	appendRecord(t, d, &WALRecord{Seq: 1, Type: RecDML, SourceName: "src", SQL: "kept"})

	boom := os.ErrClosed
	d.Failpoint = func(stage string) error {
		if stage == "wal-append" {
			return boom
		}
		return nil
	}
	frame, err := EncodeRecord(&WALRecord{Type: RecDML, SourceName: "src", SQL: "torn"})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Append(frame, 2); err == nil {
		t.Fatal("failpoint append should error")
	}
	d.Close()

	// The torn half-frame is on disk; recovery must ignore it.
	d2, err := OpenDir(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	var got []*WALRecord
	if _, err := d2.Replay(func(rec *WALRecord) error { got = append(got, rec); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].SQL != "kept" {
		t.Fatalf("recovered records = %+v", got)
	}
	// And the log is append-clean again. The failed append did not
	// consume sequence 2.
	appendRecord(t, d2, &WALRecord{Seq: 2, Type: RecDML, SourceName: "src", SQL: "after"})
}

// A missing WAL file between two present ones means acknowledged
// mutations are gone; OpenDir must refuse with ErrWALGap rather than
// silently replaying around the hole.
func TestOpenDirRefusesWALFileGap(t *testing.T) {
	path := t.TempDir()
	d, err := OpenDir(path)
	if err != nil {
		t.Fatal(err)
	}
	appendRecord(t, d, &WALRecord{Seq: 1, Type: RecDML, SourceName: "src", SQL: "one"})
	if _, err := d.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendRecord(t, d, &WALRecord{Seq: 2, Type: RecDML, SourceName: "src", SQL: "two"})
	if _, err := d.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendRecord(t, d, &WALRecord{Seq: 3, Type: RecDML, SourceName: "src", SQL: "three"})
	d.Close()

	// wal-1 and wal-3 present, wal-2 missing.
	if err := os.Remove(filepath.Join(path, "wal-00000002.log")); err != nil {
		t.Fatal(err)
	}
	_, err = OpenDir(path)
	if !errors.Is(err, ErrWALGap) {
		t.Fatalf("open with missing wal-2 = %v, want ErrWALGap", err)
	}

	// The first live file missing is the same failure.
	if err := os.Remove(filepath.Join(path, "wal-00000001.log")); err != nil {
		t.Fatal(err)
	}
	_, err = OpenDir(path)
	if !errors.Is(err, ErrWALGap) {
		t.Fatalf("open with missing wal-1 = %v, want ErrWALGap", err)
	}
}

// Non-consecutive record sequences inside the live WAL — a corrupt
// record in a non-final file swallowing acknowledged mutations — are a
// gap, distinct from a torn tail (which only loses the unacknowledged
// end and stays fine).
func TestOpenDirRefusesRecordSeqGap(t *testing.T) {
	path := t.TempDir()
	d, err := OpenDir(path)
	if err != nil {
		t.Fatal(err)
	}
	appendRecord(t, d, &WALRecord{Seq: 1, Type: RecDML, SourceName: "src", SQL: "one"})
	appendRecord(t, d, &WALRecord{Seq: 3, Type: RecDML, SourceName: "src", SQL: "three"})
	d.Close()

	_, err = OpenDir(path)
	if !errors.Is(err, ErrWALGap) {
		t.Fatalf("open with record seqs 1,3 = %v, want ErrWALGap", err)
	}
}
