package rel

import (
	"reflect"
	"sort"
	"sync"
	"testing"
)

// indexedColumns returns the display names of r's indexed columns, sorted.
func indexedColumns(r *Relation) []string {
	out := make([]string, 0, len(r.indexes))
	for _, ix := range r.indexes {
		out = append(out, ix.Column)
	}
	sort.Strings(out)
	return out
}

func indexedRelation() *Relation {
	r := NewRelation("protein", NewSchema(
		Column{Name: "id", Kind: KindInt},
		Column{Name: "acc", Kind: KindString},
		Column{Name: "org_id", Kind: KindInt},
	))
	r.PrimaryKey = "id"
	r.UniqueCols["acc"] = true
	r.ForeignKeys = append(r.ForeignKeys, ForeignKey{
		FromRelation: "protein", FromColumn: "org_id",
		ToRelation: "organism", ToColumn: "id",
	})
	r.Append(Tuple{Int(1), Str("P1"), Int(10)})
	r.Append(Tuple{Int(2), Str("P2"), Int(10)})
	r.Append(Tuple{Int(3), Str("P3"), Int(20)})
	return r
}

func TestEnsureIndexes(t *testing.T) {
	r := indexedRelation()
	r.EnsureIndexes()
	want := []string{"acc", "id", "org_id"}
	if got := indexedColumns(r); !reflect.DeepEqual(got, want) {
		t.Fatalf("indexed columns = %v, want %v", got, want)
	}
	if ix := r.HashIndex("ID"); ix == nil || ix.Len() != 3 {
		t.Fatalf("case-insensitive HashIndex(ID) = %v", ix)
	}
	if ps := r.HashIndex("org_id").Lookup(Int(10)); !reflect.DeepEqual(ps, []int{0, 1}) {
		t.Errorf("Lookup(org_id=10) = %v, want [0 1]", ps)
	}
}

func TestIndexMaintainedOnAppend(t *testing.T) {
	r := indexedRelation()
	r.EnsureIndexes()
	r.Append(Tuple{Int(4), Str("P4"), Int(20)})
	r.Append(Tuple{Parse("5"), Parse("P5"), Parse("20")})
	if ps := r.HashIndex("org_id").Lookup(Int(20)); !reflect.DeepEqual(ps, []int{2, 3, 4}) {
		t.Errorf("Lookup(org_id=20) after appends = %v, want [2 3 4]", ps)
	}
	if ps := r.HashIndex("id").Lookup(Int(5)); !reflect.DeepEqual(ps, []int{4}) {
		t.Errorf("Lookup(id=5) = %v (Append of parsed values must maintain indexes)", ps)
	}
}

func TestIndexSkipsNulls(t *testing.T) {
	r := indexedRelation()
	r.Append(Tuple{Int(4), Null(), Null()})
	r.EnsureIndexes()
	if ps := r.HashIndex("acc").Lookup(Null()); ps != nil {
		t.Errorf("Lookup(NULL) = %v, want nil", ps)
	}
	if n := r.HashIndex("acc").Len(); n != 3 {
		t.Errorf("acc index has %d keys, want 3 (NULL unindexed)", n)
	}
}

func TestLookupRoutesThroughIndex(t *testing.T) {
	r := indexedRelation()
	// Without an index Lookup scans; with one it probes. Results agree.
	scan, err := r.Lookup("acc", Str("P2"))
	if err != nil {
		t.Fatal(err)
	}
	r.EnsureIndexes()
	probe, err := r.Lookup("acc", Str("P2"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scan, probe) || len(probe) != 1 {
		t.Fatalf("scan %v vs probe %v", scan, probe)
	}
	// Cross-kind numeric probe: Key unifies Int and integral Float.
	ps, err := r.LookupPositions("id", Float(2))
	if err != nil || !reflect.DeepEqual(ps, []int{1}) {
		t.Errorf("LookupPositions(id, 2.0) = %v, %v", ps, err)
	}
	if _, err := r.Lookup("missing", Int(1)); err == nil {
		t.Error("Lookup on unknown column succeeded")
	}
}

func TestRebuildIndexes(t *testing.T) {
	r := indexedRelation()
	r.EnsureIndexes()
	// Mutate in place (what UPDATE does), then rebuild.
	r.Tuples[0][2] = Int(20)
	r.Tuples = r.Tuples[:2]
	r.RebuildIndexes()
	if ps := r.HashIndex("org_id").Lookup(Int(20)); !reflect.DeepEqual(ps, []int{0}) {
		t.Errorf("after rebuild Lookup(org_id=20) = %v, want [0]", ps)
	}
	if ps := r.HashIndex("id").Lookup(Int(3)); ps != nil {
		t.Errorf("deleted tuple still indexed: %v", ps)
	}
}

func TestCloneDropsSharedNothing(t *testing.T) {
	r := indexedRelation()
	r.EnsureIndexes()
	c := r.Clone()
	if cols := indexedColumns(c); len(cols) != 0 {
		t.Fatalf("Clone carried indexes %v; they must be rebuilt explicitly", cols)
	}
	c.EnsureIndexes()
	c.Append(Tuple{Int(9), Str("P9"), Int(30)})
	if ps := r.HashIndex("id").Lookup(Int(9)); ps != nil {
		t.Errorf("append on clone leaked into original index: %v", ps)
	}
}

func TestCopyIndexesFrom(t *testing.T) {
	r := indexedRelation()
	r.EnsureIndexes()
	c := r.Clone()
	c.CopyIndexesFrom(r)
	if got := indexedColumns(c); !reflect.DeepEqual(got, indexedColumns(r)) {
		t.Fatalf("copied columns = %v, want %v", got, indexedColumns(r))
	}
	if ps := c.HashIndex("org_id").Lookup(Int(10)); !reflect.DeepEqual(ps, []int{0, 1}) {
		t.Fatalf("copied Lookup(org_id=10) = %v", ps)
	}
	// Buckets are copied, not shared: appends stay independent.
	c.Append(Tuple{Int(4), Str("P4"), Int(10)})
	if ps := r.HashIndex("org_id").Lookup(Int(10)); len(ps) != 2 {
		t.Errorf("append on copy leaked into source buckets: %v", ps)
	}
	// Cardinality mismatch copies nothing.
	short := NewRelation(r.Name, r.Schema.Clone())
	short.CopyIndexesFrom(r)
	if cols := indexedColumns(short); len(cols) != 0 {
		t.Errorf("mismatched-cardinality copy built %v", cols)
	}
}

func TestAppendBranchIndexesIndependent(t *testing.T) {
	r := indexedRelation()
	r.EnsureIndexes()
	parentSlots := len(r.HashIndex("id").slots.slots)
	want := map[int64][]int{1: {0}, 2: {1}, 3: {2}}
	b := r.AppendBranch()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // a reader of the published parent while the branch appends
		defer wg.Done()
		for round := 0; round < 200; round++ {
			for id, ps := range want {
				if got := r.HashIndex("id").Lookup(Int(id)); !reflect.DeepEqual(got, ps) {
					t.Errorf("parent Lookup(id=%d) = %v during branch appends, want %v", id, got, ps)
					return
				}
			}
			if got := r.HashIndex("id").Lookup(Int(100)); got != nil {
				t.Errorf("parent sees the branch's key 100 at %v", got)
				return
			}
		}
	}()
	const added = 500
	for i := 0; i < added; i++ {
		b.Append(Tuple{Int(int64(100 + i)), Str("B"), Int(10)})
	}
	wg.Wait()
	if got := len(b.HashIndex("id").slots.slots); got <= parentSlots {
		t.Fatalf("branch index has %d slots, parent %d: the branch never grew", got, parentSlots)
	}
	for id, ps := range want {
		if got := r.HashIndex("id").Lookup(Int(id)); !reflect.DeepEqual(got, ps) {
			t.Errorf("parent Lookup(id=%d) = %v after branch appends, want %v", id, got, ps)
		}
		if got := b.HashIndex("id").Lookup(Int(id)); !reflect.DeepEqual(got, ps) {
			t.Errorf("branch Lookup(id=%d) = %v, want %v", id, got, ps)
		}
	}
	for i := 0; i < added; i++ {
		if got := b.HashIndex("id").Lookup(Int(int64(100 + i))); !reflect.DeepEqual(got, []int{3 + i}) {
			t.Fatalf("branch Lookup(id=%d) = %v, want [%d]", 100+i, got, 3+i)
		}
	}
	if got := r.HashIndex("org_id").Lookup(Int(10)); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("parent Lookup(org_id=10) = %v, want [0 1]", got)
	}
	if got := b.HashIndex("org_id").Lookup(Int(10)); len(got) != 2+added {
		t.Errorf("branch Lookup(org_id=10) has %d positions, want %d", len(got), 2+added)
	}
	if r.HashIndex("id").Len() != 3 || b.HashIndex("id").Len() != 3+added {
		t.Errorf("Len: parent %d, branch %d", r.HashIndex("id").Len(), b.HashIndex("id").Len())
	}
}

func TestShallowCloneSharesIndexes(t *testing.T) {
	db := NewDatabase("w")
	r := indexedRelation()
	r.EnsureIndexes()
	db.Put(r)
	snap := db.ShallowClone()
	if snap.Relation("protein").HashIndex("id") != r.HashIndex("id") {
		t.Error("ShallowClone must share relation indexes structurally")
	}
}

func TestKeyJoinCollisionFree(t *testing.T) {
	a := KeyJoin("a\x01", "b")
	b := KeyJoin("a", "\x01b")
	if a == b {
		t.Fatalf("KeyJoin collided: %q", a)
	}
	// The historical separator-join encoding collides on exactly this
	// pair of tuples; TupleKey must keep them distinct.
	t1 := Tuple{Str("x"), Str("y\x01sz")}
	t2 := Tuple{Str("x\x01sy"), Str("z")}
	if TupleKey(t1) == TupleKey(t2) {
		t.Fatalf("TupleKey collided: %q", TupleKey(t1))
	}
	if TupleKey(t1) != TupleKey(Tuple{Str("x"), Str("y\x01sz")}) {
		t.Error("TupleKey not deterministic")
	}
}
