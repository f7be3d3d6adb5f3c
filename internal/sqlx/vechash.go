package sqlx

import (
	"math"

	"repro/internal/rel"
)

// Zero-allocation hash tables for the vectorized executor, each a
// rel.Slots probe array (which sets the probing and growth) over 64-bit
// value hashes (rel.Value.Hash64) plus the table's own entries in
// first-seen order, checked with KeyEqual — the identity of Value.Key()
// strings without building them. Probes never build a key string;
// inserts append to flat arenas, so the only allocations are amortized
// slice growth. Hash-join buckets chain their rows through the arena in
// insertion order, so per-key match order is the build side's order.

// keyChains maps value keys to chains of row indices in insertion
// order; the join tables below keep the rows themselves, row i being
// the i-th add.
type keyChains struct {
	slots   rel.Slots
	entries []chainEntry // per key, in first-seen order
	next    []int32      // per row: the next row of its key's chain, -1 = end
}

type chainEntry struct {
	key        rel.Value
	head, tail int32
}

func (c *keyChains) find(h uint64, v rel.Value) int32 {
	p := c.slots.Probe(h)
	for e := p.Next(); e >= 0; e = p.Next() {
		if c.entries[e].key.KeyEqual(v) {
			return e
		}
	}
	return -1
}

// add chains the next row under v.
func (c *keyChains) add(v rel.Value) {
	ri := int32(len(c.next))
	c.next = append(c.next, -1)
	h := v.Hash64()
	if e := c.find(h, v); e >= 0 {
		ent := &c.entries[e]
		c.next[ent.tail] = ri
		ent.tail = ri
		return
	}
	c.slots.Add(h)
	c.entries = append(c.entries, chainEntry{key: v, head: ri, tail: ri})
}

// probe returns the head row index of v's chain, or -1. Zero
// allocations.
func (c *keyChains) probe(v rel.Value) int32 {
	if e := c.find(v.Hash64(), v); e >= 0 {
		return c.entries[e].head
	}
	return -1
}

// joinTable is the joinHashBuildRight build side: value key → chain of
// right tuples in insertion order.
type joinTable struct {
	keyChains
	rows []rel.Tuple
}

func (jt *joinTable) insert(v rel.Value, t rel.Tuple) {
	jt.rows = append(jt.rows, t)
	jt.add(v)
}

// envTable is the joinHashBuildLeft build side: value key → chain of
// buffered left environments in insertion order, each kept as a copy of
// its tuple slots.
type envTable struct {
	keyChains
	rows   [][]rel.Tuple
	tuples kept[rel.Tuple]
}

func (et *envTable) insert(v rel.Value, e *env) {
	et.rows = append(et.rows, et.tuples.copy(e.tuples))
	et.add(v)
}

// tupleSet deduplicates whole rows (DISTINCT, UNION) under
// rel.TupleKeyEqual identity without building key strings.
type tupleSet struct {
	slots rel.Slots
	rows  []rel.Tuple
	vals  kept[rel.Value]
}

// insert reports whether row was new, keeping a copy of it if so.
func (ts *tupleSet) insert(row rel.Tuple) bool {
	h := rel.TupleHash64(row)
	p := ts.slots.Probe(h)
	for e := p.Next(); e >= 0; e = p.Next() {
		if rel.TupleKeyEqual(ts.rows[e], row) {
			return false
		}
	}
	ts.slots.Add(h)
	ts.rows = append(ts.rows, ts.vals.copy(row))
	return true
}

// valueSet deduplicates single values (DISTINCT aggregates, IN sets).
type valueSet struct {
	slots rel.Slots
	vals  []rel.Value
}

func (vs *valueSet) find(h uint64, v rel.Value) bool {
	p := vs.slots.Probe(h)
	for e := p.Next(); e >= 0; e = p.Next() {
		if vs.vals[e].KeyEqual(v) {
			return true
		}
	}
	return false
}

func (vs *valueSet) contains(v rel.Value) bool { return vs.find(v.Hash64(), v) }

// insert reports whether v was new.
func (vs *valueSet) insert(v rel.Value) bool {
	h := v.Hash64()
	if vs.find(h, v) {
		return false
	}
	vs.slots.Add(h)
	vs.vals = append(vs.vals, v)
	return true
}

// groupTable maps composite GROUP BY keys to group indices. Every key
// has the same number n of values, so group i's key is keys[i*n:(i+1)*n]
// in one flat arena; the probe key is a reused scratch slice that is
// only copied in when the group is new.
type groupTable struct {
	slots rel.Slots
	keys  []rel.Value
}

// findOrAdd returns the group index for key, adding a new group (with
// index len(existing groups)) when unseen. added reports a new group.
func (gt *groupTable) findOrAdd(key []rel.Value) (idx int, added bool) {
	h := rel.ValuesHash64(key)
	n := len(key)
	p := gt.slots.Probe(h)
	for e := p.Next(); e >= 0; e = p.Next() {
		if i := int(e) * n; rel.ValuesKeyEqual(gt.keys[i:i+n], key) {
			return int(e), false
		}
	}
	gt.keys = append(gt.keys, key...)
	return int(gt.slots.Add(h)), true
}

// inSet is a materialized IN (SELECT ...) value set with the probe
// semantics of the historical linear scan (Value.Equal): the bulk of
// the values sit in a hash set probed by KeyEqual — which implies Equal
// for the non-NULL, non-NaN values stored there — while the rare values
// where Equal and KeyEqual diverge stay on a linear overflow list:
//   - NaN floats: KeyEqual(NaN, NaN) is true but Equal is false, so
//     they must never be hash-matched;
//   - integers beyond float53 round-trip: Equal compares them through
//     float64, which can equate distinct keys (2^53 vs 2^53+1), so a
//     hash miss is not an Equal miss.
type inSet struct {
	vals     []rel.Value // every value, original order (risky-probe fallback)
	set      valueSet
	overflow []rel.Value // NaNs and non-round-trip ints, probed with Equal
}

// riskyInt reports an integer that does not survive the int64→float64
// round trip, making Equal (float comparison) coarser than KeyEqual.
func riskyInt(v rel.Value) bool {
	if v.Kind() != rel.KindInt {
		return false
	}
	i, _ := v.AsInt()
	return int64(float64(i)) != i
}

func riskyInValue(v rel.Value) bool {
	if riskyInt(v) {
		return true
	}
	if v.Kind() == rel.KindFloat {
		f, _ := v.AsFloat()
		return math.IsNaN(f)
	}
	return false
}

func newInSet(vals []rel.Value) *inSet {
	s := &inSet{vals: vals}
	for _, v := range vals {
		if v.IsNull() {
			continue // NULL equals nothing; keep it out of both probes
		}
		if riskyInValue(v) {
			s.overflow = append(s.overflow, v)
			continue
		}
		s.set.insert(v)
	}
	return s
}

// contains reports whether a non-NULL probe value Equal-matches any
// set value — exactly the result of the historical linear scan.
func (s *inSet) contains(v rel.Value) bool {
	if s.set.contains(v) {
		return true
	}
	if riskyInt(v) {
		// The probe itself is float-coarse: only the full linear scan
		// reproduces Equal faithfully.
		for _, x := range s.vals {
			if v.Equal(x) {
				return true
			}
		}
		return false
	}
	for _, x := range s.overflow {
		if v.Equal(x) {
			return true
		}
	}
	return false
}
