package rel

import (
	"fmt"
	"strings"
)

// Index is a persistent hash index over one column of a relation: the
// positions of the tuples holding each distinct value, found through a
// Slots probe array (which sets the probing and growth) over the
// values' 64-bit hashes (Value.Hash64) with a KeyEqual check, so probes
// build no intermediate key string and allocate nothing. NULLs are
// never indexed — they compare equal to nothing, so no equality probe
// can return them.
//
// Indexes are built explicitly (EnsureIndex / EnsureIndexes) and
// maintained incrementally by the Append family. Building is NOT safe
// concurrently with readers of the same relation; the integration
// pipeline builds indexes off-lock on private relations before they are
// published, after which both relation and index are treated as
// immutable and shared structurally across snapshots via
// Database.ShallowClone.
type Index struct {
	// Column is the indexed column's display name.
	Column string
	col    int
	slots  Slots
	// entries holds one bucket per distinct key, in first-seen order.
	entries []indexEntry
}

type indexEntry struct {
	val       Value
	positions []int
}

// Len returns the number of distinct indexed keys.
func (ix *Index) Len() int { return len(ix.entries) }

// findEntry returns the entry index for v, or -1. Zero allocations.
func (ix *Index) findEntry(h uint64, v Value) int {
	p := ix.slots.Probe(h)
	for e := p.Next(); e >= 0; e = p.Next() {
		if ix.entries[e].val.KeyEqual(v) {
			return int(e)
		}
	}
	return -1
}

// Lookup returns the tuple positions whose indexed column equals v
// (bucket semantics: NULL matches nothing, cross-kind numerics match
// numerically). The slice is owned by the index; callers must not
// mutate it.
func (ix *Index) Lookup(v Value) []int {
	if v.IsNull() {
		return nil
	}
	if e := ix.findEntry(v.Hash64(), v); e >= 0 {
		return ix.entries[e].positions
	}
	return nil
}

// add buckets one tuple at the given position.
func (ix *Index) add(t Tuple, pos int) {
	v := t[ix.col]
	if v.IsNull() {
		return
	}
	h := v.Hash64()
	if e := ix.findEntry(h, v); e >= 0 {
		ix.entries[e].positions = append(ix.entries[e].positions, pos)
		return
	}
	ix.slots.Add(h)
	ix.entries = append(ix.entries, indexEntry{val: v, positions: []int{pos}})
}

// branch returns a copy of ix whose probe array and entry list grow
// independently of ix's; the position slices are shared.
func (ix *Index) branch() *Index {
	return &Index{Column: ix.Column, col: ix.col, slots: ix.slots.Clone(),
		entries: append([]indexEntry(nil), ix.entries...)}
}

// buildIndex scans the relation once and buckets every tuple position.
func buildIndex(r *Relation, column string, col int) *Index {
	ix := &Index{Column: column, col: col}
	for pos, t := range r.Tuples {
		ix.add(t, pos)
	}
	return ix
}

// HashIndex returns the hash index on the named column, or nil when the
// column is not indexed.
func (r *Relation) HashIndex(column string) *Index {
	return r.indexes[strings.ToLower(column)]
}

// EnsureIndex builds the hash index on the named column if it does not
// exist yet, and returns it. Building scans the relation once; later
// Append calls maintain the index incrementally.
func (r *Relation) EnsureIndex(column string) (*Index, error) {
	col := r.Schema.Index(column)
	if col < 0 {
		return nil, fmt.Errorf("rel: relation %q has no column %q", r.Name, column)
	}
	key := strings.ToLower(column)
	if ix, ok := r.indexes[key]; ok {
		return ix, nil
	}
	if r.indexes == nil {
		r.indexes = make(map[string]*Index)
	}
	ix := buildIndex(r, r.Schema.Columns[col].Name, col)
	r.indexes[key] = ix
	return ix, nil
}

// EnsureIndexes builds the automatic indexes derived from declared
// constraint metadata: the primary key, every declared unique column,
// and both endpoints of every declared foreign key touching this
// relation. Columns missing from the schema (stale metadata) are
// skipped.
func (r *Relation) EnsureIndexes() {
	if r.PrimaryKey != "" {
		_, _ = r.EnsureIndex(r.PrimaryKey)
	}
	for c, u := range r.UniqueCols {
		if u {
			_, _ = r.EnsureIndex(c)
		}
	}
	for _, fk := range r.ForeignKeys {
		if strings.EqualFold(fk.FromRelation, r.Name) {
			_, _ = r.EnsureIndex(fk.FromColumn)
		}
		if strings.EqualFold(fk.ToRelation, r.Name) {
			_, _ = r.EnsureIndex(fk.ToColumn)
		}
	}
}

// RebuildIndexes re-derives every existing index from the current
// tuples. Callers that mutate or remove tuples in place (UPDATE, DELETE)
// use this to keep the relation's indexes fresh; append-only writers
// never need it.
func (r *Relation) RebuildIndexes() {
	for key, ix := range r.indexes {
		r.indexes[key] = buildIndex(r, ix.Column, ix.col)
	}
}

// CopyIndexesFrom copies src's hash indexes onto r, which must hold the
// same tuples in the same order (e.g. a fresh Clone of src): bucket
// positions are identical, so copying skips the re-scan and re-hashing
// a rebuild would pay. Buckets are copied, not shared — later appends
// on either relation stay independent. Columns r already indexes are
// left untouched; a cardinality mismatch copies nothing.
func (r *Relation) CopyIndexesFrom(src *Relation) {
	if len(src.indexes) == 0 || len(r.Tuples) != len(src.Tuples) {
		return
	}
	if r.indexes == nil {
		r.indexes = make(map[string]*Index, len(src.indexes))
	}
	for key, ix := range src.indexes {
		if _, exists := r.indexes[key]; exists {
			continue
		}
		c := ix.branch()
		for e := range c.entries {
			c.entries[e].positions = append([]int(nil), c.entries[e].positions...)
		}
		r.indexes[key] = c
	}
}

// maintainIndexes buckets a freshly appended tuple into every index.
func (r *Relation) maintainIndexes(t Tuple, pos int) {
	for _, ix := range r.indexes {
		ix.add(t, pos)
	}
}
