package rel

import (
	"fmt"
	"testing"
	"testing/quick"
)

func sampleRelation() *Relation {
	r := NewRelation("protein", TextSchema("id", "accession", "name"))
	r.AppendRaw("1", "P12345", "hemoglobin")
	r.AppendRaw("2", "P67890", "myoglobin")
	r.AppendRaw("3", "Q11111", "insulin")
	return r
}

func TestSchemaIndexCaseInsensitive(t *testing.T) {
	s := TextSchema("Accession", "Name")
	if i := s.Index("accession"); i != 0 {
		t.Errorf("Index(accession) = %d want 0", i)
	}
	if i := s.Index("NAME"); i != 1 {
		t.Errorf("Index(NAME) = %d want 1", i)
	}
	if i := s.Index("missing"); i != -1 {
		t.Errorf("Index(missing) = %d want -1", i)
	}
}

func TestSchemaNames(t *testing.T) {
	s := TextSchema("a", "b", "c")
	names := s.Names()
	if len(names) != 3 || names[0] != "a" || names[2] != "c" {
		t.Errorf("Names() = %v", names)
	}
}

func TestRelationAppendPadsAndTruncates(t *testing.T) {
	r := NewRelation("t", TextSchema("a", "b"))
	r.Append(Tuple{Str("x")})
	r.Append(Tuple{Str("x"), Str("y"), Str("z")})
	if len(r.Tuples[0]) != 2 || !r.Tuples[0][1].IsNull() {
		t.Errorf("short tuple not padded: %v", r.Tuples[0])
	}
	if len(r.Tuples[1]) != 2 {
		t.Errorf("long tuple not truncated: %v", r.Tuples[1])
	}
}

func TestRelationDistinctValues(t *testing.T) {
	r := NewRelation("t", TextSchema("a"))
	r.AppendRaw("x")
	r.AppendRaw("x")
	r.AppendRaw("y")
	r.Append(Tuple{Null()})
	set, err := r.DistinctValues("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 {
		t.Errorf("distinct = %d want 2 (NULLs excluded)", len(set))
	}
}

func TestRelationLookup(t *testing.T) {
	r := sampleRelation()
	ts, err := r.Lookup("name", Str("insulin"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 1 || ts[0][1].AsString() != "Q11111" {
		t.Errorf("Lookup = %v", ts)
	}
}

func TestRelationCloneIsDeep(t *testing.T) {
	r := sampleRelation()
	r.ForeignKeys = append(r.ForeignKeys, ForeignKey{"protein", "id", "other", "pid"})
	c := r.Clone()
	c.Tuples[0][1] = Str("CHANGED")
	c.ForeignKeys[0].ToRelation = "changed"
	if r.Tuples[0][1].AsString() != "P12345" {
		t.Error("clone shares tuple storage with original")
	}
	if r.ForeignKeys[0].ToRelation != "other" {
		t.Error("clone shares FK storage with original")
	}
}

func TestDatabaseCRUD(t *testing.T) {
	db := NewDatabase("src")
	db.Create("a", TextSchema("x"))
	db.Create("b", TextSchema("y"))
	if db.Len() != 2 {
		t.Fatalf("Len = %d", db.Len())
	}
	if db.Relation("A") == nil {
		t.Error("lookup should be case-insensitive")
	}
	names := db.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v, want insertion order", names)
	}
	db.Drop("a")
	if db.Len() != 1 || db.Relation("a") != nil {
		t.Error("Drop failed")
	}
	if got := db.Names(); len(got) != 1 || got[0] != "b" {
		t.Errorf("Names after drop = %v", got)
	}
}

func TestDatabasePutReplaces(t *testing.T) {
	db := NewDatabase("src")
	db.Create("t", TextSchema("a"))
	r2 := NewRelation("t", TextSchema("a", "b"))
	db.Put(r2)
	if db.Len() != 1 {
		t.Fatalf("Len = %d want 1", db.Len())
	}
	if db.Relation("t").Schema.Len() != 2 {
		t.Error("Put did not replace relation")
	}
}

func TestDatabaseTotalTuples(t *testing.T) {
	db := NewDatabase("src")
	a := db.Create("a", TextSchema("x"))
	b := db.Create("b", TextSchema("y"))
	a.AppendRaw("1")
	a.AppendRaw("2")
	b.AppendRaw("3")
	if n := db.TotalTuples(); n != 3 {
		t.Errorf("TotalTuples = %d want 3", n)
	}
}

func TestForeignKeyString(t *testing.T) {
	fk := ForeignKey{"a", "x", "b", "y"}
	if fk.String() != "a.x -> b.y" {
		t.Errorf("String = %q", fk.String())
	}
}

// Property: after appending n distinct raw values, Cardinality is n and
// DistinctValues has n entries.
func TestRelationDistinctCountProperty(t *testing.T) {
	f := func(n uint8) bool {
		r := NewRelation("t", TextSchema("a"))
		for i := 0; i < int(n); i++ {
			r.AppendRaw(fmt.Sprintf("v%d", i))
		}
		set, _ := r.DistinctValues("a")
		return r.Cardinality() == int(n) && len(set) == int(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestShallowClone: the clone shares relation contents but owns its
// name map — adding or dropping on one side is invisible to the other.
func TestShallowClone(t *testing.T) {
	db := NewDatabase("wh")
	a := db.Create("a", TextSchema("x"))
	a.AppendRaw("1")

	snap := db.ShallowClone()
	db.Create("b", TextSchema("y"))
	db.Drop("a")

	if snap.Relation("b") != nil {
		t.Error("clone sees relation added after the snapshot")
	}
	if snap.Relation("a") == nil {
		t.Fatal("clone lost relation dropped from the original")
	}
	if snap.Relation("a") != a {
		t.Error("clone does not share the relation value")
	}
	if got := snap.Names(); len(got) != 1 || got[0] != "a" {
		t.Errorf("clone Names = %v, want [a]", got)
	}
	if db.Relation("b") == nil {
		t.Error("original lost its new relation")
	}
}
