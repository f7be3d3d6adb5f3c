package store

import (
	"bytes"
	"path/filepath"
	"reflect"
	"slices"
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

func TestSnapshotWriteRead(t *testing.T) {
	db := sampleDB()
	metas := map[string]*metadata.SourceMeta{
		"src": {Name: "src", Seq: 1, TupleCount: 2},
	}
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
	snap := Build(map[string]*rel.Database{"src": db}, metas, links, removed)

	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != FormatVersion || len(got.Sources) != 1 {
		t.Fatalf("snapshot = %+v", got)
	}
	if len(got.Links) != 1 || got.Links[0].Method != "test" {
		t.Errorf("links = %+v", got.Links)
	}
	if len(got.Removed) != 1 {
		t.Errorf("removed = %+v", got.Removed)
	}
}

func TestReadRejectsWrongVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, &Snapshot{Version: FormatVersion}); err != nil {
		t.Fatal(err)
	}
	// Corrupt by writing a snapshot with a bad version.
	var buf2 bytes.Buffer
	bad := &Snapshot{Version: 999}
	if err := Write(&buf2, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf2); err == nil {
		t.Error("wrong version should be rejected")
	}
}

func TestReadGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Error("garbage should fail")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "warehouse.gob")
	db := sampleDB()
	snap := Build(map[string]*rel.Database{"src": db},
		map[string]*metadata.SourceMeta{"src": {Name: "src", Seq: 1}}, nil, nil)
	if err := SaveFile(path, snap); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Sources) != 1 || got.Sources[0].Name != "src" {
		t.Errorf("loaded = %+v", got.Sources)
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.gob")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestBuildOrdersBySeq(t *testing.T) {
	dbs := map[string]*rel.Database{
		"b": rel.NewDatabase("b"),
		"a": rel.NewDatabase("a"),
	}
	metas := map[string]*metadata.SourceMeta{
		"b": {Name: "b", Seq: 2},
		"a": {Name: "a", Seq: 1},
	}
	snap := Build(dbs, metas, nil, nil)
	if len(snap.Sources) != 2 || snap.Sources[0].Name != "a" || snap.Sources[1].Name != "b" {
		t.Errorf("order = %+v", snap.Sources)
	}
}

// TestBatchesRoundTrip: a source's batches survive single-file snapshots
// and segments, and stay out of WAL records.
func TestBatchesRoundTrip(t *testing.T) {
	withBatches := SourceSnapshot{Name: "src", Relations: SnapshotDatabase(sampleDB()), TupleCount: 2}
	withBatches.SetBatches([][]int{{1, 1}})
	plain := SourceSnapshot{Name: "plain", Relations: SnapshotDatabase(sampleDB()), TupleCount: 2}

	var buf bytes.Buffer
	if err := Write(&buf, &Snapshot{Sources: []SourceSnapshot{withBatches, plain}}); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b := got.Sources[0].Batches(); len(b) != 1 || !slices.Equal(b[0], []int{1, 1}) {
		t.Errorf("snapshot batches = %v", b)
	}
	if b := got.Sources[1].Batches(); len(b) != 0 {
		t.Errorf("source without batches read back %v", b)
	}

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
