package rel

// AppendBranch returns a new Relation that extends r without ever
// mutating it — the primitive under batched ingestion's "readers see
// only batch-boundary snapshots" guarantee.
//
// The branch shares r's immutable parts outright (schema, constraint
// metadata) and shares the tuple *prefix* structurally: its Tuples
// field is the same slice header, so appends on the branch land at
// positions >= len(r.Tuples) — beyond what any holder of the old
// header can observe. Readers of r only ever touch indexes below their
// own length; the branch's writer only ever writes at or above it, so
// the two never race even when an append lands in r's spare capacity.
//
// Hash indexes get the same treatment one level down: the branch owns
// a clone of the probe array and a copy of the entry list (appends may
// add new keys or grow the table) but shares the position slices, whose
// appends are again invisible below the old length.
// Stats are cloned (cheap — histograms stay shared) and maintained
// incrementally by Append.
//
// The prefix-sharing argument requires branches to chain linearly: at
// most one live branch may append at a time, and each new branch must
// be taken from the latest published one. Package aladin guarantees
// this by serializing ingestion under its integration lock.
func (r *Relation) AppendBranch() *Relation {
	b := &Relation{
		Name:        r.Name,
		Schema:      r.Schema,
		Tuples:      r.Tuples,
		PrimaryKey:  r.PrimaryKey,
		UniqueCols:  r.UniqueCols,
		ForeignKeys: r.ForeignKeys,
		Stats:       r.Stats.Clone(),
	}
	if len(r.indexes) > 0 {
		b.indexes = make(map[string]*Index, len(r.indexes))
		for key, ix := range r.indexes {
			b.indexes[key] = ix.branch()
		}
	}
	return b
}
