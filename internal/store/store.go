// Package store persists and restores an integrated ALADIN warehouse.
// The paper's system is a *materialized* repository (§3: "ALADIN builds on
// a local data warehouse"), so integration results — imported relations,
// discovered structures, statistics, object links, and user feedback —
// must survive restarts without re-running the expensive discovery steps
// (§6.2 stresses how costly re-computation is). This package only
// encodes and decodes; rebuilding a live system from what it reads
// (core.Recover) goes through the same publish step that commits live
// integrations.
//
// There is one on-disk layout, the data directory (see manifest.go and
// dir.go): a MANIFEST naming one checkpoint segment per source and a
// links segment, plus an append-only WAL (wal.go) of the mutations made
// since that checkpoint.
// A checkpointed directory is self-contained: copying its files copies
// the warehouse, which is how replication bootstraps (export.go). Every
// file starts with a magic string that names its kind and version.
package store

import (
	"sort"
	"strings"

	"repro/internal/discovery"
	"repro/internal/metadata"
	"repro/internal/profile"
	"repro/internal/rel"
)

// Snapshot is the in-memory image of an integrated warehouse: what
// Dir.Load reads from a checkpoint, and what a System can be built from.
type Snapshot struct {
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
	// encoding; segments write it after the image (see Batches).
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
	// computed. Absent in pre-stats images (gob tolerates the missing
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

func keyOf(name string) string { return strings.ToLower(name) }
