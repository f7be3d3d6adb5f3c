package rel

import (
	"fmt"
	"strings"
)

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of columns with fast name lookup.
type Schema struct {
	Columns []Column
	byName  map[string]int
}

// NewSchema builds a schema from columns. Column names are
// case-insensitive for lookup but preserved for display.
func NewSchema(cols ...Column) *Schema {
	s := &Schema{Columns: cols, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		s.byName[strings.ToLower(c.Name)] = i
	}
	return s
}

// TextSchema builds a schema of all-text columns from names, the common
// case for generically imported flat-file data.
func TextSchema(names ...string) *Schema {
	cols := make([]Column, len(names))
	for i, n := range names {
		cols[i] = Column{Name: n, Kind: KindString}
	}
	return NewSchema(cols...)
}

// Index returns the position of the named column, or -1.
func (s *Schema) Index(name string) int {
	if i, ok := s.byName[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Columns) }

// Names returns the column names in order.
func (s *Schema) Names() []string {
	names := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		names[i] = c.Name
	}
	return names
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	cols := make([]Column, len(s.Columns))
	copy(cols, s.Columns)
	return NewSchema(cols...)
}

// Tuple is one row of a relation.
type Tuple []Value

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// ForeignKey records a (possibly discovered) directed reference from
// a column of one relation to a column of another.
type ForeignKey struct {
	FromRelation string
	FromColumn   string
	ToRelation   string
	ToColumn     string
}

// String renders the FK as from.rel(col) -> to.rel(col).
func (fk ForeignKey) String() string {
	return fmt.Sprintf("%s.%s -> %s.%s", fk.FromRelation, fk.FromColumn, fk.ToRelation, fk.ToColumn)
}

// Relation is an in-memory table: a schema plus tuples. Declared
// constraint metadata (primary key, unique, foreign keys) is optional and
// may be absent for generically imported sources — ALADIN's discovery
// steps fill the gap.
type Relation struct {
	Name   string
	Schema *Schema
	Tuples []Tuple

	// Declared constraints, possibly empty.
	PrimaryKey  string
	UniqueCols  map[string]bool
	ForeignKeys []ForeignKey

	// indexes holds the persistent hash indexes by lower-cased column
	// name (see index.go). Never gob-encoded: snapshots rebuild indexes
	// from restored tuples.
	indexes map[string]*Index

	// Stats is the planner's statistics block (see stats.go), nil until
	// profiling (or BuildStats) computes one. Append maintains it
	// incrementally; Clone deep-copies it.
	Stats *Stats
}

// NewRelation creates an empty relation with the given schema.
func NewRelation(name string, schema *Schema) *Relation {
	return &Relation{Name: name, Schema: schema, UniqueCols: make(map[string]bool)}
}

// Append adds a tuple, padding or truncating to the schema arity. Any
// existing hash indexes are maintained incrementally.
func (r *Relation) Append(t Tuple) {
	n := r.Schema.Len()
	if len(t) < n {
		padded := make(Tuple, n)
		copy(padded, t)
		t = padded
	} else if len(t) > n {
		t = t[:n]
	}
	r.Tuples = append(r.Tuples, t)
	r.maintainIndexes(t, len(r.Tuples)-1)
	if r.Stats != nil {
		r.Stats.maintain(r, t)
	}
}

// AppendRaw adds a tuple of uninterpreted text values (no type guessing).
func (r *Relation) AppendRaw(fields ...string) {
	t := make(Tuple, len(fields))
	for i, f := range fields {
		if f == "" {
			t[i] = Null()
		} else {
			t[i] = Str(f)
		}
	}
	r.Append(t)
}

// Cardinality returns the number of tuples.
func (r *Relation) Cardinality() int { return len(r.Tuples) }

// DistinctValues returns the set of distinct non-null values of a column,
// as canonical keys mapping to one representative value.
func (r *Relation) DistinctValues(name string) (map[string]Value, error) {
	i := r.Schema.Index(name)
	if i < 0 {
		return nil, fmt.Errorf("rel: relation %q has no column %q", r.Name, name)
	}
	set := make(map[string]Value)
	for _, t := range r.Tuples {
		v := t[i]
		if v.IsNull() {
			continue
		}
		k := v.Key()
		if _, ok := set[k]; !ok {
			set[k] = v
		}
	}
	return set, nil
}

// LookupPositions returns the positions of the tuples whose named column
// equals v — an O(1) probe of the column's hash index when one exists, a
// full scan otherwise.
func (r *Relation) LookupPositions(name string, v Value) ([]int, error) {
	i := r.Schema.Index(name)
	if i < 0 {
		return nil, fmt.Errorf("rel: relation %q has no column %q", r.Name, name)
	}
	if ix := r.indexes[strings.ToLower(name)]; ix != nil {
		return ix.Lookup(v), nil
	}
	var out []int
	for pos, t := range r.Tuples {
		if t[i].Equal(v) {
			out = append(out, pos)
		}
	}
	return out, nil
}

// Lookup returns the tuples whose named column equals v, routed through
// the column's hash index when one exists.
func (r *Relation) Lookup(name string, v Value) ([]Tuple, error) {
	positions, err := r.LookupPositions(name, v)
	if err != nil || len(positions) == 0 {
		return nil, err
	}
	out := make([]Tuple, len(positions))
	for j, pos := range positions {
		out[j] = r.Tuples[pos]
	}
	return out, nil
}

// Clone returns a deep copy of the relation. Hash indexes are not
// copied; callers needing them on the copy call EnsureIndex(es) again.
func (r *Relation) Clone() *Relation {
	c := NewRelation(r.Name, r.Schema.Clone())
	c.PrimaryKey = r.PrimaryKey
	for k, v := range r.UniqueCols {
		c.UniqueCols[k] = v
	}
	c.ForeignKeys = append(c.ForeignKeys, r.ForeignKeys...)
	c.Tuples = make([]Tuple, len(r.Tuples))
	for i, t := range r.Tuples {
		c.Tuples[i] = t.Clone()
	}
	c.Stats = r.Stats.Clone()
	return c
}

// Database is a named collection of relations — the relational
// representation of one imported data source, or the whole warehouse.
type Database struct {
	Name      string
	relations map[string]*Relation
	order     []string
}

// NewDatabase creates an empty database.
func NewDatabase(name string) *Database {
	return &Database{Name: name, relations: make(map[string]*Relation)}
}

// Create adds a new empty relation and returns it. It replaces any
// existing relation of the same name.
func (db *Database) Create(name string, schema *Schema) *Relation {
	r := NewRelation(name, schema)
	db.Put(r)
	return r
}

// Put inserts or replaces a relation.
func (db *Database) Put(r *Relation) {
	key := strings.ToLower(r.Name)
	if _, exists := db.relations[key]; !exists {
		db.order = append(db.order, key)
	}
	db.relations[key] = r
}

// Relation returns the named relation, or nil.
func (db *Database) Relation(name string) *Relation {
	return db.relations[strings.ToLower(name)]
}

// ShallowClone returns a new Database sharing the same *Relation values
// but owning its own name map and order slice. Adding or dropping
// relations on either copy is invisible to the other, while relation
// contents stay shared — the cheap snapshot primitive for readers that
// must stay consistent while new relations are being published, provided
// the shared relations themselves are treated as immutable.
func (db *Database) ShallowClone() *Database {
	c := &Database{
		Name:      db.Name,
		relations: make(map[string]*Relation, len(db.relations)),
		order:     append([]string(nil), db.order...),
	}
	for k, r := range db.relations {
		c.relations[k] = r
	}
	return c
}

// Drop removes the named relation.
func (db *Database) Drop(name string) {
	key := strings.ToLower(name)
	if _, ok := db.relations[key]; !ok {
		return
	}
	delete(db.relations, key)
	for i, k := range db.order {
		if k == key {
			db.order = append(db.order[:i], db.order[i+1:]...)
			break
		}
	}
}

// Relations returns all relations in insertion order.
func (db *Database) Relations() []*Relation {
	out := make([]*Relation, 0, len(db.order))
	for _, k := range db.order {
		out = append(out, db.relations[k])
	}
	return out
}

// Names returns the relation names in insertion order.
func (db *Database) Names() []string {
	out := make([]string, 0, len(db.order))
	for _, k := range db.order {
		out = append(out, db.relations[k].Name)
	}
	return out
}

// Len returns the number of relations.
func (db *Database) Len() int { return len(db.relations) }

// TotalTuples returns the sum of cardinalities over all relations.
func (db *Database) TotalTuples() int {
	n := 0
	for _, r := range db.relations {
		n += len(r.Tuples)
	}
	return n
}
