package sqlx

import (
	"math"

	"repro/internal/rel"
)

// Zero-allocation hash tables for the vectorized executor: open
// addressing over 64-bit value hashes (rel.Value.Hash64) with KeyEqual
// verification on collision — the identity of Value.Key() strings
// without building them. Probes never build a key string; inserts
// append to flat arenas, so the only allocations are amortized slice
// growth. Multi-value payloads (hash-join buckets) are chained through
// the arena with per-entry head/tail indices, preserving insertion
// order, so per-key match order is the build side's tuple order.

// tableInitSlots is the initial power-of-two slot count; tables grow at
// 75% load by re-placing entries from their stored hashes.
const tableInitSlots = 16

// joinTable is the joinHashBuildRight build side: value key → chain of
// right tuples in insertion order.
type joinTable struct {
	slots   []int32 // entry index + 1; 0 = empty
	entries []jtEntry
	rows    []jtRow
}

type jtEntry struct {
	hash       uint64
	key        rel.Value
	head, tail int32
}

type jtRow struct {
	t    rel.Tuple
	next int32 // -1 = end of chain
}

func (jt *joinTable) find(h uint64, v rel.Value) int {
	if len(jt.slots) == 0 {
		return -1
	}
	mask := uint64(len(jt.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := jt.slots[i]
		if s == 0 {
			return -1
		}
		e := &jt.entries[s-1]
		if e.hash == h && e.key.KeyEqual(v) {
			return int(s - 1)
		}
	}
}

func (jt *joinTable) insert(v rel.Value, t rel.Tuple) {
	h := v.Hash64()
	ri := int32(len(jt.rows))
	jt.rows = append(jt.rows, jtRow{t: t, next: -1})
	if e := jt.find(h, v); e >= 0 {
		ent := &jt.entries[e]
		jt.rows[ent.tail].next = ri
		ent.tail = ri
		return
	}
	jt.entries = append(jt.entries, jtEntry{hash: h, key: v, head: ri, tail: ri})
	jt.placeNew(h)
}

// probe returns the head row index of v's chain, or -1. Zero
// allocations.
func (jt *joinTable) probe(v rel.Value) int32 {
	if e := jt.find(v.Hash64(), v); e >= 0 {
		return jt.entries[e].head
	}
	return -1
}

func (jt *joinTable) placeNew(h uint64) {
	if len(jt.entries)*4 > len(jt.slots)*3 {
		n := len(jt.slots) * 2
		if n < tableInitSlots {
			n = tableInitSlots
		}
		jt.slots = make([]int32, n)
		for e := range jt.entries {
			jt.place(jt.entries[e].hash, int32(e+1))
		}
		return
	}
	jt.place(h, int32(len(jt.entries)))
}

func (jt *joinTable) place(h uint64, s int32) {
	mask := uint64(len(jt.slots) - 1)
	i := h & mask
	for jt.slots[i] != 0 {
		i = (i + 1) & mask
	}
	jt.slots[i] = s
}

// envTable is the joinHashBuildLeft build side: value key → chain of
// buffered left environments in insertion order.
type envTable struct {
	slots   []int32
	entries []etEntry
	rows    []etRow
}

type etEntry struct {
	hash       uint64
	key        rel.Value
	head, tail int32
}

type etRow struct {
	e    *env
	next int32
}

func (et *envTable) find(h uint64, v rel.Value) int {
	if len(et.slots) == 0 {
		return -1
	}
	mask := uint64(len(et.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := et.slots[i]
		if s == 0 {
			return -1
		}
		e := &et.entries[s-1]
		if e.hash == h && e.key.KeyEqual(v) {
			return int(s - 1)
		}
	}
}

func (et *envTable) insert(v rel.Value, e *env) {
	h := v.Hash64()
	ri := int32(len(et.rows))
	et.rows = append(et.rows, etRow{e: e, next: -1})
	if i := et.find(h, v); i >= 0 {
		ent := &et.entries[i]
		et.rows[ent.tail].next = ri
		ent.tail = ri
		return
	}
	et.entries = append(et.entries, etEntry{hash: h, key: v, head: ri, tail: ri})
	if len(et.entries)*4 > len(et.slots)*3 {
		n := len(et.slots) * 2
		if n < tableInitSlots {
			n = tableInitSlots
		}
		et.slots = make([]int32, n)
		for i := range et.entries {
			et.place(et.entries[i].hash, int32(i+1))
		}
		return
	}
	et.place(h, int32(len(et.entries)))
}

func (et *envTable) probe(v rel.Value) int32 {
	if i := et.find(v.Hash64(), v); i >= 0 {
		return et.entries[i].head
	}
	return -1
}

func (et *envTable) place(h uint64, s int32) {
	mask := uint64(len(et.slots) - 1)
	i := h & mask
	for et.slots[i] != 0 {
		i = (i + 1) & mask
	}
	et.slots[i] = s
}

// tupleSet deduplicates whole rows (DISTINCT, UNION) under TupleKey
// identity without building key strings.
type tupleSet struct {
	slots   []int32
	entries []tsEntry
}

type tsEntry struct {
	hash uint64
	row  rel.Tuple
}

// insert reports whether row was new. The row is retained; callers pass
// rows whose backing storage is stable for the life of the set.
func (ts *tupleSet) insert(row rel.Tuple) bool {
	h := rel.TupleHash64(row)
	if len(ts.slots) > 0 {
		mask := uint64(len(ts.slots) - 1)
		for i := h & mask; ; i = (i + 1) & mask {
			s := ts.slots[i]
			if s == 0 {
				break
			}
			e := &ts.entries[s-1]
			if e.hash == h && rel.TupleKeyEqual(e.row, row) {
				return false
			}
		}
	}
	ts.entries = append(ts.entries, tsEntry{hash: h, row: row})
	if len(ts.entries)*4 > len(ts.slots)*3 {
		n := len(ts.slots) * 2
		if n < tableInitSlots {
			n = tableInitSlots
		}
		ts.slots = make([]int32, n)
		for e := range ts.entries {
			ts.place(ts.entries[e].hash, int32(e+1))
		}
		return true
	}
	ts.place(h, int32(len(ts.entries)))
	return true
}

func (ts *tupleSet) place(h uint64, s int32) {
	mask := uint64(len(ts.slots) - 1)
	i := h & mask
	for ts.slots[i] != 0 {
		i = (i + 1) & mask
	}
	ts.slots[i] = s
}

// valueSet deduplicates single values (DISTINCT aggregates, IN sets).
type valueSet struct {
	slots   []int32
	entries []vsEntry
}

type vsEntry struct {
	hash uint64
	val  rel.Value
}

func (vs *valueSet) len() int { return len(vs.entries) }

func (vs *valueSet) contains(v rel.Value) bool {
	if len(vs.slots) == 0 {
		return false
	}
	h := v.Hash64()
	mask := uint64(len(vs.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := vs.slots[i]
		if s == 0 {
			return false
		}
		e := &vs.entries[s-1]
		if e.hash == h && e.val.KeyEqual(v) {
			return true
		}
	}
}

// insert reports whether v was new.
func (vs *valueSet) insert(v rel.Value) bool {
	h := v.Hash64()
	if len(vs.slots) > 0 {
		mask := uint64(len(vs.slots) - 1)
		for i := h & mask; ; i = (i + 1) & mask {
			s := vs.slots[i]
			if s == 0 {
				break
			}
			e := &vs.entries[s-1]
			if e.hash == h && e.val.KeyEqual(v) {
				return false
			}
		}
	}
	vs.entries = append(vs.entries, vsEntry{hash: h, val: v})
	if len(vs.entries)*4 > len(vs.slots)*3 {
		n := len(vs.slots) * 2
		if n < tableInitSlots {
			n = tableInitSlots
		}
		vs.slots = make([]int32, n)
		for e := range vs.entries {
			vs.place(vs.entries[e].hash, int32(e+1))
		}
		return true
	}
	vs.place(h, int32(len(vs.entries)))
	return true
}

func (vs *valueSet) place(h uint64, s int32) {
	mask := uint64(len(vs.slots) - 1)
	i := h & mask
	for vs.slots[i] != 0 {
		i = (i + 1) & mask
	}
	vs.slots[i] = s
}

// groupTable maps composite GROUP BY keys to group indices. Keys live
// in one flat value arena; the probe key is a reused scratch slice that
// is only copied in when the group is new.
type groupTable struct {
	slots   []int32
	entries []gtEntry
	keys    []rel.Value
}

type gtEntry struct {
	hash     uint64
	off, n   int32
	groupIdx int32
}

// findOrAdd returns the group index for key, adding a new group (with
// index len(existing groups)) when unseen. added reports a new group.
func (gt *groupTable) findOrAdd(key []rel.Value) (idx int, added bool) {
	h := rel.ValuesHash64(key)
	if len(gt.slots) > 0 {
		mask := uint64(len(gt.slots) - 1)
		for i := h & mask; ; i = (i + 1) & mask {
			s := gt.slots[i]
			if s == 0 {
				break
			}
			e := &gt.entries[s-1]
			if e.hash == h && rel.ValuesKeyEqual(gt.keys[e.off:e.off+e.n], key) {
				return int(e.groupIdx), false
			}
		}
	}
	off := int32(len(gt.keys))
	gt.keys = append(gt.keys, key...)
	gi := int32(len(gt.entries))
	gt.entries = append(gt.entries, gtEntry{hash: h, off: off, n: int32(len(key)), groupIdx: gi})
	if len(gt.entries)*4 > len(gt.slots)*3 {
		n := len(gt.slots) * 2
		if n < tableInitSlots {
			n = tableInitSlots
		}
		gt.slots = make([]int32, n)
		for e := range gt.entries {
			gt.place(gt.entries[e].hash, int32(e+1))
		}
		return int(gi), true
	}
	gt.place(h, int32(len(gt.entries)))
	return int(gi), true
}

func (gt *groupTable) place(h uint64, s int32) {
	mask := uint64(len(gt.slots) - 1)
	i := h & mask
	for gt.slots[i] != 0 {
		i = (i + 1) & mask
	}
	gt.slots[i] = s
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
