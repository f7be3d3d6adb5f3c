// Package store persists and restores an integrated ALADIN warehouse.
// The paper's system is a *materialized* repository (§3: "ALADIN builds on
// a local data warehouse"), so integration results — imported relations,
// discovered structures, statistics, object links, and user feedback —
// must survive restarts without re-running the expensive discovery steps
// (§6.2 stresses how costly re-computation is). This package only
// encodes and decodes; rebuilding a live system from what it reads
// (core.Load, core.Recover) goes through the same publish step that
// commits live integrations.
//
// Two on-disk layouts exist:
//
//   - the single-file gob snapshot (Write/Read, SaveFile/LoadFile) — the
//     import/export format, a full rewrite per save;
//   - the durable directory format (see dir.go): a MANIFEST naming
//     per-source checkpoint segments plus an append-only WAL (wal.go),
//     which is what long-lived warehouses use.
//
// Every on-disk artifact starts with a magic string and a format-version
// byte, so the layouts stay distinguishable from each other — and from
// the headerless pre-v2 snapshots — forever after.
package store

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"

	"repro/internal/discovery"
	"repro/internal/metadata"
	"repro/internal/profile"
	"repro/internal/rel"
)

// FormatVersion identifies the snapshot layout. Version 2 added the
// magic header and persisted per-source structures and column profiles
// (recovery reuses them instead of re-running discovery).
const FormatVersion = 2

// snapshotMagic prefixes every single-file snapshot, followed by one
// format-version byte.
const snapshotMagic = "ALDN"

// Snapshot is the serializable state of an integrated warehouse.
type Snapshot struct {
	Version int
	Sources []SourceSnapshot
	Links   []metadata.Link
	// Removed holds user-feedback link deletions so restored systems do
	// not resurrect them (§6.2).
	Removed []metadata.Link
}

// SourceSnapshot is one source's data plus discovered metadata. The
// full discovered structure and column profiles are persisted so a
// restore skips profiling and structural discovery — §6.2 stresses how
// costly re-computation is; package core rejects a source image without
// them rather than re-deriving.
type SourceSnapshot struct {
	Name       string
	Relations  []RelationSnapshot
	Structure  *discovery.Structure
	Profiles   map[string]*profile.ColumnProfile
	TupleCount int
	// batches is unexported, so gob skips it and WAL records keep their
	// encoding; segments and single-file snapshots write it after the
	// image (see Batches).
	batches [][]int
}

// Batches returns, parallel to Relations, the tuple count of each batch
// the source's ownership table was built from
// (discovery.Owners.Batches), so a restore resolves every batch's rows
// to that batch's objects again. It is nil for a table built in one
// piece, and for images written before batches were persisted.
func (ss *SourceSnapshot) Batches() [][]int { return ss.batches }

// SetBatches records the batches; see Batches.
func (ss *SourceSnapshot) SetBatches(b [][]int) { ss.batches = b }

// RelationSnapshot flattens a rel.Relation for encoding.
type RelationSnapshot struct {
	Name        string
	Columns     []rel.Column
	PrimaryKey  string
	UniqueCols  []string
	ForeignKeys []rel.ForeignKey
	// Tuples flatten row-major; Kinds parallel the values.
	Rows [][]CellSnapshot
	// Stats carries the planner's statistics block, when one was
	// computed. Absent in pre-stats snapshots (gob tolerates the missing
	// field); restore then leaves Relation.Stats nil and the planner
	// falls back to guesses.
	Stats *StatsSnapshot
}

// StatsSnapshot flattens rel.Stats for encoding.
type StatsSnapshot struct {
	Rows  int
	Built int
	Cols  []ColStatsSnapshot
}

// ColStatsSnapshot flattens one column's rel.ColStats.
type ColStatsSnapshot struct {
	Name     string
	Nulls    int
	Distinct int
	Min      CellSnapshot
	Max      CellSnapshot
	Hist     []CellSnapshot
}

func encodeStats(st *rel.Stats) *StatsSnapshot {
	if st == nil {
		return nil
	}
	out := &StatsSnapshot{Rows: st.Rows, Built: st.Built}
	names := make([]string, 0, len(st.Cols))
	for name := range st.Cols {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic segment bytes
	for _, name := range names {
		cs := st.Cols[name]
		c := ColStatsSnapshot{
			Name:     name,
			Nulls:    cs.Nulls,
			Distinct: cs.Distinct,
			Min:      encodeCell(cs.Min),
			Max:      encodeCell(cs.Max),
		}
		for _, v := range cs.Hist {
			c.Hist = append(c.Hist, encodeCell(v))
		}
		out.Cols = append(out.Cols, c)
	}
	return out
}

func decodeStats(ss *StatsSnapshot) *rel.Stats {
	if ss == nil {
		return nil
	}
	st := &rel.Stats{Rows: ss.Rows, Built: ss.Built, Cols: make(map[string]*rel.ColStats, len(ss.Cols))}
	for _, c := range ss.Cols {
		cs := &rel.ColStats{
			Nulls:    c.Nulls,
			Distinct: c.Distinct,
			Min:      decodeCell(c.Min),
			Max:      decodeCell(c.Max),
		}
		for _, v := range c.Hist {
			cs.Hist = append(cs.Hist, decodeCell(v))
		}
		st.Cols[c.Name] = cs
	}
	return st
}

// CellSnapshot is one encoded value.
type CellSnapshot struct {
	Kind rel.Kind
	I    int64
	F    float64
	S    string
	B    bool
}

func encodeCell(v rel.Value) CellSnapshot {
	c := CellSnapshot{Kind: v.Kind()}
	switch v.Kind() {
	case rel.KindInt:
		c.I, _ = v.AsInt()
	case rel.KindFloat:
		c.F, _ = v.AsFloat()
	case rel.KindString:
		c.S = v.AsString()
	case rel.KindBool:
		c.B, _ = v.AsBool()
	}
	return c
}

func decodeCell(c CellSnapshot) rel.Value {
	switch c.Kind {
	case rel.KindInt:
		return rel.Int(c.I)
	case rel.KindFloat:
		return rel.Float(c.F)
	case rel.KindString:
		return rel.Str(c.S)
	case rel.KindBool:
		return rel.Bool(c.B)
	}
	return rel.Null()
}

// SnapshotRelation converts a relation into its snapshot form.
func SnapshotRelation(r *rel.Relation) RelationSnapshot {
	rs := RelationSnapshot{
		Name:        r.Name,
		Columns:     append([]rel.Column{}, r.Schema.Columns...),
		PrimaryKey:  r.PrimaryKey,
		ForeignKeys: append([]rel.ForeignKey{}, r.ForeignKeys...),
	}
	for c, u := range r.UniqueCols {
		if u {
			rs.UniqueCols = append(rs.UniqueCols, c)
		}
	}
	rs.Rows = make([][]CellSnapshot, len(r.Tuples))
	for i, t := range r.Tuples {
		row := make([]CellSnapshot, len(t))
		for j, v := range t {
			row[j] = encodeCell(v)
		}
		rs.Rows[i] = row
	}
	rs.Stats = encodeStats(r.Stats)
	return rs
}

// RestoreRelation converts a snapshot back into a relation. Hash
// indexes are never part of the encoding; the declared-key indexes are
// rebuilt here from the restored tuples (discovered-column indexes are
// rebuilt by the warehouse loader, which knows the structure).
func RestoreRelation(rs RelationSnapshot) *rel.Relation {
	r := rel.NewRelation(rs.Name, rel.NewSchema(rs.Columns...))
	r.PrimaryKey = rs.PrimaryKey
	for _, c := range rs.UniqueCols {
		r.UniqueCols[c] = true
	}
	r.ForeignKeys = append(r.ForeignKeys, rs.ForeignKeys...)
	for _, row := range rs.Rows {
		t := make(rel.Tuple, len(row))
		for j, c := range row {
			t[j] = decodeCell(c)
		}
		r.Append(t)
	}
	r.EnsureIndexes()
	// Attach stats after the Append loop so incremental maintenance does
	// not double-count the restored rows.
	r.Stats = decodeStats(rs.Stats)
	return r
}

// SnapshotDatabase converts a database.
func SnapshotDatabase(db *rel.Database) []RelationSnapshot {
	var out []RelationSnapshot
	for _, r := range db.Relations() {
		out = append(out, SnapshotRelation(r))
	}
	return out
}

// RestoreDatabase rebuilds a database.
func RestoreDatabase(name string, rels []RelationSnapshot) *rel.Database {
	db := rel.NewDatabase(name)
	for _, rs := range rels {
		db.Put(RestoreRelation(rs))
	}
	return db
}

// Build assembles a snapshot from warehouse pieces. Callers pass the
// per-source databases plus the metadata repository.
func Build(sources map[string]*rel.Database, metas map[string]*metadata.SourceMeta,
	links, removed []metadata.Link) *Snapshot {

	snap := &Snapshot{Version: FormatVersion, Links: links, Removed: removed}
	// Deterministic source order: by registration sequence.
	ordered := make([]*metadata.SourceMeta, 0, len(metas))
	for _, m := range metas {
		ordered = append(ordered, m)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Seq < ordered[j].Seq })
	for _, m := range ordered {
		db := sources[keyOf(m.Name)]
		if db == nil {
			continue
		}
		snap.Sources = append(snap.Sources, SourceSnapshot{
			Name:       m.Name,
			Relations:  SnapshotDatabase(db),
			Structure:  m.Structure,
			Profiles:   m.Profiles,
			TupleCount: m.TupleCount,
		})
	}
	return snap
}

func keyOf(name string) string { return strings.ToLower(name) }

// Write encodes a snapshot: the magic string, one format-version byte,
// then the gob stream.
func Write(w io.Writer, snap *Snapshot) error {
	if snap.Version == 0 {
		snap.Version = FormatVersion
	}
	if _, err := w.Write(append([]byte(snapshotMagic), byte(FormatVersion))); err != nil {
		return fmt.Errorf("store: writing snapshot header: %w", err)
	}
	enc := gob.NewEncoder(w)
	if err := enc.Encode(snap); err != nil {
		return fmt.Errorf("store: encoding snapshot: %w", err)
	}
	// The sources' batches follow, one entry per source, when any has.
	batches := make([][][]int, len(snap.Sources))
	for i := range snap.Sources {
		batches[i] = snap.Sources[i].batches
	}
	if !slices.ContainsFunc(batches, func(b [][]int) bool { return b != nil }) {
		return nil
	}
	if err := enc.Encode(batches); err != nil {
		return fmt.Errorf("store: encoding snapshot batches: %w", err)
	}
	return nil
}

// Read decodes a snapshot, validating the magic header and its version.
// Headerless pre-v2 snapshots and future versions are rejected with a
// clear error rather than a gob decoding failure.
func Read(r io.Reader) (*Snapshot, error) {
	hdr := make([]byte, len(snapshotMagic)+1)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("store: reading snapshot header: %w", err)
	}
	if string(hdr[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("store: not an ALADIN snapshot (bad magic %q; headerless pre-v%d snapshots must be re-exported)",
			hdr[:len(snapshotMagic)], FormatVersion)
	}
	if v := int(hdr[len(snapshotMagic)]); v != FormatVersion {
		return nil, fmt.Errorf("store: unsupported snapshot version %d (want %d)", v, FormatVersion)
	}
	dec := gob.NewDecoder(r)
	var snap Snapshot
	if err := dec.Decode(&snap); err != nil {
		return nil, fmt.Errorf("store: decoding snapshot: %w", err)
	}
	if snap.Version != FormatVersion {
		return nil, fmt.Errorf("store: unsupported snapshot version %d (want %d)", snap.Version, FormatVersion)
	}
	var batches [][][]int
	if err := dec.Decode(&batches); err != nil && err != io.EOF {
		return nil, fmt.Errorf("store: decoding snapshot batches: %w", err)
	}
	if batches != nil && len(batches) != len(snap.Sources) {
		return nil, fmt.Errorf("store: snapshot batches for %d of %d sources", len(batches), len(snap.Sources))
	}
	for i, b := range batches {
		snap.Sources[i].batches = b
	}
	return &snap, nil
}

// SaveFile durably writes a snapshot to a file: temp file, fsync,
// atomic rename, directory fsync — a "saved" snapshot survives power
// loss, not just a process crash.
func SaveFile(path string, snap *Snapshot) error {
	return atomicWriteFile(path, func(w io.Writer) error { return Write(w, snap) })
}

// LoadFile reads a snapshot from a file.
func LoadFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
