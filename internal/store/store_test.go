package store

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metadata"
	"repro/internal/rel"
)

func sampleDB() *rel.Database {
	db := rel.NewDatabase("src")
	r := db.Create("t", rel.NewSchema(
		rel.Column{Name: "id", Kind: rel.KindInt},
		rel.Column{Name: "acc", Kind: rel.KindString},
		rel.Column{Name: "mass", Kind: rel.KindFloat},
		rel.Column{Name: "active", Kind: rel.KindBool},
	))
	r.PrimaryKey = "id"
	r.UniqueCols["acc"] = true
	r.ForeignKeys = append(r.ForeignKeys, rel.ForeignKey{
		FromRelation: "t", FromColumn: "id", ToRelation: "u", ToColumn: "tid"})
	r.Append(rel.Tuple{rel.Int(1), rel.Str("P1"), rel.Float(2.5), rel.Bool(true)})
	r.Append(rel.Tuple{rel.Int(2), rel.Null(), rel.Float(-1), rel.Bool(false)})
	return db
}

func TestRelationRoundTrip(t *testing.T) {
	db := sampleDB()
	orig := db.Relation("t")
	restored := RestoreRelation(SnapshotRelation(orig))
	if restored.Name != "t" || restored.Schema.Len() != 4 {
		t.Fatalf("shape = %s/%d", restored.Name, restored.Schema.Len())
	}
	if restored.PrimaryKey != "id" || !restored.UniqueCols["acc"] {
		t.Error("constraints lost")
	}
	if len(restored.ForeignKeys) != 1 {
		t.Error("FKs lost")
	}
	for i, tu := range orig.Tuples {
		for j, v := range tu {
			got := restored.Tuples[i][j]
			if v.IsNull() != got.IsNull() {
				t.Fatalf("null mismatch at %d,%d", i, j)
			}
			if !v.IsNull() && !v.Equal(got) {
				t.Fatalf("value mismatch at %d,%d: %v vs %v", i, j, v, got)
			}
			if v.Kind() != got.Kind() {
				t.Fatalf("kind mismatch at %d,%d: %v vs %v", i, j, v.Kind(), got.Kind())
			}
		}
	}
}

// checkpointed writes src, links and removed as one checkpoint of a fresh
// data directory at path and closes it.
func checkpointed(t *testing.T, path string, src SourceSnapshot, links, removed []metadata.Link) {
	t.Helper()
	d, err := OpenDir(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	seq, err := d.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CompleteCheckpoint(&CheckpointData{
		Dirty: []SourceSnapshot{src}, Order: []string{src.Name},
		WALSeq: seq, Links: links, Removed: removed,
	}); err != nil {
		t.Fatal(err)
	}
}

// loadDir opens the data directory at path and loads its checkpoint.
func loadDir(t *testing.T, path string) *Snapshot {
	t.Helper()
	d, err := OpenDir(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	snap, err := d.Load()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestSnapshotWriteRead: a checkpoint writes a source segment and the
// links segment, links and removed links alike, and Load reads them back.
func TestSnapshotWriteRead(t *testing.T) {
	links := []metadata.Link{{
		Type:       metadata.LinkXRef,
		From:       metadata.ObjectRef{Source: "src", Relation: "t", Accession: "P1"},
		To:         metadata.ObjectRef{Source: "other", Relation: "m", Accession: "X1"},
		Confidence: 0.9, Method: "test",
	}}
	removed := []metadata.Link{{
		Type: metadata.LinkText,
		From: metadata.ObjectRef{Source: "src", Relation: "t", Accession: "P1"},
		To:   metadata.ObjectRef{Source: "other", Relation: "m", Accession: "X2"},
	}}
	path := t.TempDir()
	checkpointed(t, path, SourceSnapshot{Name: "src", Relations: SnapshotDatabase(sampleDB()), TupleCount: 2}, links, removed)

	got := loadDir(t, path)
	if len(got.Sources) != 1 || got.Sources[0].Name != "src" || got.Sources[0].TupleCount != 2 {
		t.Fatalf("sources = %+v", got.Sources)
	}
	if len(got.Links) != 1 || got.Links[0].Method != "test" {
		t.Errorf("links = %+v", got.Links)
	}
	if len(got.Removed) != 1 || got.Removed[0].To.Accession != "X2" {
		t.Errorf("removed = %+v", got.Removed)
	}
}

// TestSaveLoadFile: a warehouse is saved as a checkpointed data
// directory, and a plain copy of that directory's files is the whole
// saved warehouse — it opens and loads with nothing else beside it.
func TestSaveLoadFile(t *testing.T) {
	path := t.TempDir()
	checkpointed(t, path, SourceSnapshot{Name: "src", Relations: SnapshotDatabase(sampleDB()), TupleCount: 2}, nil, nil)

	saved := t.TempDir()
	entries, err := os.ReadDir(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		buf, err := os.ReadFile(filepath.Join(path, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(saved, e.Name()), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got := loadDir(t, saved)
	if len(got.Sources) != 1 || got.Sources[0].Name != "src" {
		t.Fatalf("loaded = %+v", got.Sources)
	}
	if n := len(got.Sources[0].Relations); n != len(SnapshotDatabase(sampleDB())) {
		t.Errorf("loaded %d relations, want %d", n, len(SnapshotDatabase(sampleDB())))
	}
}

// TestBuildOrdersBySeq: a checkpoint lists sources in the registration
// order it is given, not in the order their segments were written, and
// Load hands them back in that order — the order restore registers them
// in again. A later checkpoint rewriting only one source keeps it.
func TestBuildOrdersBySeq(t *testing.T) {
	path := t.TempDir()
	d, err := OpenDir(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	a := SourceSnapshot{Name: "a", Relations: SnapshotDatabase(rel.NewDatabase("a"))}
	b := SourceSnapshot{Name: "b", Relations: SnapshotDatabase(rel.NewDatabase("b"))}
	for _, dirty := range [][]SourceSnapshot{{b, a}, {b}} {
		seq, err := d.Rotate()
		if err != nil {
			t.Fatal(err)
		}
		if err := d.CompleteCheckpoint(&CheckpointData{Dirty: dirty, Order: []string{"a", "b"}, WALSeq: seq}); err != nil {
			t.Fatal(err)
		}
		snap, err := d.Load()
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Sources) != 2 || snap.Sources[0].Name != "a" || snap.Sources[1].Name != "b" {
			t.Errorf("dirty %d: order = %+v", len(dirty), snap.Sources)
		}
	}
}

// TestReadRejectsWrongVersion: a manifest of another directory-format
// version is refused with an error naming it, not decoded.
func TestReadRejectsWrongVersion(t *testing.T) {
	path := t.TempDir()
	var buf bytes.Buffer
	buf.WriteString(manifestMagic)
	if err := gob.NewEncoder(&buf).Encode(&Manifest{Version: ManifestVersion - 1, WALSeq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(path, ManifestName), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(path); err == nil || !strings.Contains(err.Error(), "unsupported manifest version") {
		t.Errorf("OpenDir of a version-%d manifest = %v, want refusal", ManifestVersion-1, err)
	}
}

// TestReadGarbage: every reader of the directory format refuses bytes
// that do not start with its magic.
func TestReadGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage")
	if err := os.WriteFile(path, []byte("not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readManifest(path); err == nil {
		t.Error("garbage manifest should fail")
	}
	if _, err := readSegment(path); err == nil {
		t.Error("garbage segment should fail")
	}
	if _, err := readLinksSegment(path); err == nil {
		t.Error("garbage links segment should fail")
	}
}

// TestLoadMissingSegment: a manifest naming a segment file that is gone
// fails the load instead of recovering without the source.
func TestLoadMissingSegment(t *testing.T) {
	path := t.TempDir()
	checkpointed(t, path, SourceSnapshot{Name: "src", Relations: SnapshotDatabase(sampleDB()), TupleCount: 2}, nil, nil)
	d, err := OpenDir(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := os.Remove(filepath.Join(path, d.ManifestCopy().Sources[0].File)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Load(); err == nil {
		t.Error("load with a missing segment should fail")
	}
}

// TestBatchesRoundTrip: a source's batches survive segments and stay out
// of WAL records.
func TestBatchesRoundTrip(t *testing.T) {
	withBatches := SourceSnapshot{Name: "src", Relations: SnapshotDatabase(sampleDB()), TupleCount: 2}
	withBatches.SetBatches([][]int{{1, 1}})
	plain := SourceSnapshot{Name: "plain", Relations: SnapshotDatabase(sampleDB()), TupleCount: 2}

	dir := t.TempDir()
	for _, ss := range []SourceSnapshot{withBatches, plain} {
		path := filepath.Join(dir, ss.Name+".seg")
		if err := writeSegment(path, &ss); err != nil {
			t.Fatal(err)
		}
		back, err := readSegment(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back.Batches(), ss.Batches()) {
			t.Errorf("%s: segment batches = %v, want %v", ss.Name, back.Batches(), ss.Batches())
		}
	}

	without := withBatches
	without.SetBatches(nil)
	framed, err := EncodeRecord(&WALRecord{Type: RecAppend, Source: &withBatches})
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeRecord(&WALRecord{Type: RecAppend, Source: &without})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(framed, want) {
		t.Errorf("WAL record carries batches: %d bytes, %d without", len(framed), len(want))
	}
}
