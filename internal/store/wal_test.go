package store

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/metadata"
)

// walAppend encodes rec and durably appends it with its Seq.
func walAppend(w *WAL, rec *WALRecord) error {
	frame, err := EncodeRecord(rec)
	if err != nil {
		return err
	}
	return w.Append(frame, rec.Seq)
}

func sampleRecords() []*WALRecord {
	return []*WALRecord{
		{
			Seq:  1,
			Type: RecAddSource,
			Source: &SourceSnapshot{
				Name:       "src",
				Relations:  SnapshotDatabase(sampleDB()),
				TupleCount: 2,
			},
			Links: []metadata.Link{{
				Type: metadata.LinkXRef,
				From: metadata.ObjectRef{Source: "src", Relation: "t", Accession: "P1"},
				To:   metadata.ObjectRef{Source: "other", Relation: "m", Accession: "X1"},
			}},
		},
		{Seq: 2, Type: RecDML, SourceName: "src", SQL: "DELETE FROM src_t WHERE id = 2"},
		{Seq: 3, Type: RecRemoveLink, Link: &metadata.Link{
			Type: metadata.LinkText,
			From: metadata.ObjectRef{Source: "src", Relation: "t", Accession: "P1"},
			To:   metadata.ObjectRef{Source: "other", Relation: "m", Accession: "X2"},
		}},
	}
}

func TestWALAppendScanRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-00000001.log")
	w, err := CreateWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	for _, rec := range want {
		if err := walAppend(w, rec); err != nil {
			t.Fatal(err)
		}
	}
	if w.Records() != len(want) || w.Bytes() <= 0 {
		t.Fatalf("counters = %d records / %d bytes", w.Records(), w.Bytes())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got, _, err := ScanWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scanned %d records, want %d", len(got), len(want))
	}
	for i, rec := range got {
		if rec.Seq != uint64(i+1) {
			t.Errorf("record %d has seq %d, want %d", i, rec.Seq, i+1)
		}
	}
	if got[0].Type != RecAddSource || got[0].Source.Name != "src" || len(got[0].Links) != 1 {
		t.Errorf("record 0 = %+v", got[0])
	}
	if got[1].Type != RecDML || got[1].SQL != want[1].SQL || got[1].SourceName != "src" {
		t.Errorf("record 1 = %+v", got[1])
	}
	if got[2].Type != RecRemoveLink || got[2].Link == nil || got[2].Link.To.Accession != "X2" {
		t.Errorf("record 2 = %+v", got[2])
	}

	// OpenWAL resumes appending after the last intact record.
	w2, replayed, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(want) {
		t.Fatalf("reopen replayed %d records, want %d", len(replayed), len(want))
	}
	if err := walAppend(w2, &WALRecord{Seq: 4, Type: RecDML, SQL: "x"}); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	got, _, err = ScanWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want)+1 {
		t.Fatalf("after reopen+append: %d records, want %d", len(got), len(want)+1)
	}
}

// A crash mid-append leaves a torn final frame: replay must stop at the
// last intact record, and reopening must truncate the tear so later
// appends produce a clean log.
func TestWALTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-00000001.log")
	w, err := CreateWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range sampleRecords() {
		if err := walAppend(w, rec); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	recs, valid, err := ScanWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("torn tail: scanned %d records, want 2", len(recs))
	}
	if valid >= fi.Size()-5 {
		t.Fatalf("truncation point %d not before the tear", valid)
	}

	w2, _, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := walAppend(w2, &WALRecord{Seq: 3, Type: RecDML, SQL: "after tear"}); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	recs, _, err = ScanWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[2].SQL != "after tear" {
		t.Fatalf("after truncate+append: %d records (%+v)", len(recs), recs[len(recs)-1])
	}
}

// A corrupt record (bad CRC) stops replay: everything after it is
// untrusted even if it decodes.
func TestWALCorruptRecordStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-00000001.log")
	w, err := CreateWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range sampleRecords() {
		if err := walAppend(w, rec); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the second record: magic, then frame 1.
	_, n1, err := DecodeFrame(buf[len(walMagic):])
	if err != nil {
		t.Fatal(err)
	}
	buf[len(walMagic)+n1+walFrameHeader] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	recs, _, err := ScanWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("corrupt middle record: scanned %d records, want 1", len(recs))
	}
}

func TestScanWALRejectsNonWAL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-00000001.log")
	if err := os.WriteFile(path, []byte("definitely not a WAL file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ScanWAL(path); err == nil {
		t.Error("garbage file should be rejected")
	}
	// A torn header (prefix of the magic) is an empty log, not an error:
	// CreateWAL could have crashed right after the first write.
	if err := os.WriteFile(path, []byte(walMagic[:3]), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, _, err := ScanWAL(path)
	if err != nil || len(recs) != 0 {
		t.Errorf("torn header: recs=%d err=%v", len(recs), err)
	}
}

// An absurd length prefix is corruption, not a torn frame: it must be a
// hard error (not io.ErrUnexpectedEOF) and must not allocate the claim.
func TestDecodeFrameLimitsLength(t *testing.T) {
	frame := make([]byte, walFrameHeader)
	frame[0], frame[1], frame[2], frame[3] = 0xff, 0xff, 0xff, 0xff
	_, _, err := DecodeFrame(frame)
	if err == nil || errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("oversized length should be a hard error, got %v", err)
	}
}

func FuzzWALDecode(f *testing.F) {
	for _, rec := range sampleRecords() {
		frame, err := EncodeRecord(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
	}
	f.Add([]byte{})
	f.Add([]byte(walMagic))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if rec == nil || n <= 0 || n > len(data) {
			t.Fatalf("decoded frame inconsistent: rec=%v n=%d len=%d", rec, n, len(data))
		}
		// A successfully decoded record must re-encode.
		if _, err := EncodeRecord(rec); err != nil {
			t.Fatalf("re-encoding decoded record: %v", err)
		}
	})
}
