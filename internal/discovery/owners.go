package discovery

import (
	"fmt"
	"slices"

	"repro/internal/rel"
)

// maxOwners caps the owners kept per tuple, bounding fan-out through
// bridge relations.
const maxOwners = 16

// Owners is the §4.3 ownership table of one source or batch: for every
// tuple of every relation, the accessions of the primary objects that
// own it, and the inverse, every owner's tuples of every relation —
// §4.6's dependency relationship. Append grows it in place, so a table
// registered with a source changes only under the publish lock, like
// the source's other forms (linkdisc.Source.Grow).
type Owners struct {
	cols map[string]*ownerColumn // lower-cased relation name
	// batches holds, for each batch the table was built from, its tuple
	// count per relation (lower-cased; absent means none).
	batches []map[string]int
}

// ownerColumn holds one relation's owners: tuple i's are
// acc[start[i]:start[i+1]].
type ownerColumn struct {
	start []int32
	acc   []string
	// owned inverts the column: each owner's tuples, ascending.
	owned map[string][]int32
}

// newColumn makes an empty column sized for n tuples of one owner each.
func newColumn(n int) *ownerColumn {
	return &ownerColumn{start: make([]int32, 1, n+1), acc: make([]string, 0, n)}
}

func (c *ownerColumn) of(tuple int) []string {
	if c == nil || tuple < 0 || tuple+1 >= len(c.start) {
		return nil
	}
	lo, hi := c.start[tuple], c.start[tuple+1]
	return c.acc[lo:hi:hi]
}

// invert adds the tuples from position from on to the column's inverse.
func (c *ownerColumn) invert(from int) {
	if c.owned == nil {
		c.owned = make(map[string][]int32)
	}
	for t := from; t+1 < len(c.start); t++ {
		for _, a := range c.acc[c.start[t]:c.start[t+1]] {
			c.owned[a] = append(c.owned[a], int32(t))
		}
	}
}

// OwnersOf builds the ownership table of db under st. The primary
// relation's owners are its accession values, the tuples' own strings.
// Every other relation is reached along its shortest path, Paths[r][0],
// walked forward from the primary relation; a relation without a path
// has no owners.
func OwnersOf(db *rel.Database, st *Structure) *Owners {
	batch := make(map[string]int, db.Len())
	o := &Owners{cols: make(map[string]*ownerColumn, db.Len()), batches: []map[string]int{batch}}
	var prim *ownerColumn
	pr := db.Relation(st.Primary)
	if pr != nil {
		if ai := pr.Schema.Index(st.PrimaryAccession); ai >= 0 {
			prim = newColumn(len(pr.Tuples))
			for _, t := range pr.Tuples {
				if !t[ai].IsNull() {
					prim.acc = append(prim.acc, t[ai].AsString())
				}
				prim.start = append(prim.start, int32(len(prim.acc)))
			}
		}
	}
	for _, r := range db.Relations() {
		name := lower(r.Name)
		if len(r.Tuples) > 0 {
			batch[name] = len(r.Tuples)
		}
		var c *ownerColumn
		switch {
		case prim == nil:
		case name == lower(pr.Name):
			c = prim
		case len(st.Paths[name]) > 0:
			c = walkOwners(db, pr, prim, st.Paths[name][0])
		}
		if c == nil {
			// Every relation gets a column, owned or not, so that Append
			// keeps positions aligned with the relations it grows.
			c = &ownerColumn{start: make([]int32, len(r.Tuples)+1)}
		}
		c.invert(0)
		o.cols[name] = c
	}
	return o
}

// walkOwners carries ownership from the primary relation along path.
// Each join step hashes the current relation's owners by join value and
// gives every tuple of the next relation the owners of its value, in
// tuple order, de-duplicated and capped at maxOwners. It returns nil
// when a relation or column on the path is missing.
func walkOwners(db *rel.Database, cur *rel.Relation, owners *ownerColumn, path Path) *ownerColumn {
	for _, step := range path.Steps {
		fk := step.Edge.From
		curCol, nextName, nextCol := fk.ToColumn, fk.FromRelation, fk.FromColumn
		if step.Forward {
			curCol, nextName, nextCol = fk.FromColumn, fk.ToRelation, fk.ToColumn
		}
		next := db.Relation(nextName)
		if next == nil {
			return nil
		}
		ci, ni := cur.Schema.Index(curCol), next.Schema.Index(nextCol)
		if ci < 0 || ni < 0 {
			return nil
		}
		// A value's first owner list is shared with the current column;
		// it is capped at its length, so merging into it copies.
		byValue := make(map[string][]string, len(cur.Tuples))
		var key []byte
		for ti, t := range cur.Tuples {
			own := owners.of(ti)
			if len(own) == 0 || t[ci].IsNull() {
				continue
			}
			key = t[ci].AppendKey(key[:0])
			merged, seen := byValue[string(key)]
			if !seen {
				byValue[string(key)] = own
				continue
			}
			for _, a := range own {
				if len(merged) < maxOwners && !slices.Contains(merged, a) {
					merged = append(merged, a)
				}
			}
			byValue[string(key)] = merged
		}
		nc := newColumn(len(next.Tuples))
		for _, t := range next.Tuples {
			// A NULL's key is in no map: nulls were skipped above.
			key = t[ni].AppendKey(key[:0])
			nc.acc = append(nc.acc, byValue[string(key)]...)
			nc.start = append(nc.start, int32(len(nc.acc)))
		}
		cur, owners = next, nc
	}
	return owners
}

// Of returns the owners of one tuple, nil for a relation or position
// the table does not cover. The slice is the table's: do not modify it.
func (o *Owners) Of(relation string, tuple int) []string {
	return o.cols[lower(relation)].of(tuple)
}

// Owned returns the positions of the tuples of relation that owner owns,
// ascending; nil if none. The slice is the table's: do not modify it.
func (o *Owners) Owned(relation, owner string) []int32 {
	if c := o.cols[lower(relation)]; c != nil {
		return c.owned[owner]
	}
	return nil
}

// Append grows o, a source's table, by b, the table of a batch appended
// to the source: b's tuples of each relation follow o's, where the
// relations' append branches (rel.AppendBranch) put them. It writes o in
// place, in time linear in the batch.
func (o *Owners) Append(b *Owners) {
	o.batches = append(o.batches, b.batches...)
	for name, bc := range b.cols {
		c := o.cols[name]
		if c == nil {
			c = &ownerColumn{start: []int32{0}}
			o.cols[name] = c
		}
		from, base := len(c.start)-1, int32(len(c.acc))
		for _, s := range bc.start[1:] {
			c.start = append(c.start, base+s)
		}
		c.acc = append(c.acc, bc.acc...)
		c.invert(from)
	}
}

// Batches returns, for each relation of db in order, the tuple count of
// each batch the table was built from; nil for a table built in one
// piece. OwnersOfBatches rebuilds the table from them.
func (o *Owners) Batches(db *rel.Database) [][]int {
	if len(o.batches) < 2 {
		return nil
	}
	rels := db.Relations()
	sizes := make([][]int, len(rels))
	for j, r := range rels {
		sizes[j] = make([]int, len(o.batches))
		for i, b := range o.batches {
			sizes[j][i] = b[lower(r.Name)]
		}
	}
	return sizes
}

// OwnersOfBatches rebuilds the table of a source that grew batch by
// batch, from sizes as Batches reported them: each batch's tuples get a
// table of their own, and the tables are appended in order, so a batch
// never resolves to another's objects even where both reuse surrogate
// ids. With no sizes it is OwnersOf.
func OwnersOfBatches(db *rel.Database, st *Structure, sizes [][]int) (*Owners, error) {
	if len(sizes) == 0 {
		return OwnersOf(db, st), nil
	}
	rels := db.Relations()
	if len(sizes) != len(rels) {
		return nil, fmt.Errorf("discovery: %s: batch sizes for %d of %d relations", db.Name, len(sizes), len(rels))
	}
	n := 0
	for j, r := range rels {
		sum := 0
		for _, k := range sizes[j] {
			if k < 0 {
				sum = -1
				break
			}
			sum += k
		}
		if sum != len(r.Tuples) {
			return nil, fmt.Errorf("discovery: batch sizes %v do not partition the %d tuples of %s.%s", sizes[j], len(r.Tuples), db.Name, r.Name)
		}
		n = max(n, len(sizes[j]))
	}
	var o *Owners
	lo := make([]int, len(rels))
	for i := range n {
		view := rel.NewDatabase(db.Name)
		for j, r := range rels {
			hi := lo[j]
			if i < len(sizes[j]) {
				hi += sizes[j][i]
			}
			view.Put(&rel.Relation{Name: r.Name, Schema: r.Schema, Tuples: r.Tuples[lo[j]:hi:hi]})
			lo[j] = hi
		}
		if b := OwnersOf(view, st); o == nil {
			o = b
		} else {
			o.Append(b)
		}
	}
	return o, nil
}
