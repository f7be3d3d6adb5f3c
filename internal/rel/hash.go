package rel

import (
	"math"
	"strconv"
)

// This file holds the allocation-free twin of the canonical string keys
// in value.go/key.go: a 64-bit hash computed directly from a Value's
// kind and payload, an equality predicate implementing exactly the
// Value.Key equivalence classes, and append-into-scratch-buffer key
// variants for callers that still need the byte encoding. Hash
// collisions are resolved by KeyEqual, so Hash64 only needs to respect
// the equivalence (KeyEqual(a,b) ⇒ Hash64(a)==Hash64(b)), which it does
// by hashing the same normalized payload Key() would print: integral
// floats hash as their integer value, every NaN hashes to one constant,
// and -0.0 normalizes to integer 0.

// FNV-1a 64-bit parameters.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

func hashByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func hashUint64(h uint64, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = hashByte(h, byte(x))
		x >>= 8
	}
	return h
}

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = hashByte(h, s[i])
	}
	return h
}

// intFloat reports whether f is an integral float that round-trips
// through int64 — the same normalization Key() applies before printing
// a float as "\x00i<n>".
func intFloat(f float64) (int64, bool) {
	i := int64(f)
	if float64(i) == f {
		return i, true
	}
	return 0, false
}

// HashInto folds v into a running FNV-1a hash. Chaining HashInto over a
// tuple's values yields TupleHash64.
func (v Value) HashInto(h uint64) uint64 {
	switch v.K {
	case KindNull:
		return hashByte(h, 'N')
	case KindInt:
		return hashUint64(hashByte(h, 'i'), uint64(v.I))
	case KindFloat:
		if i, ok := intFloat(v.F); ok {
			return hashUint64(hashByte(h, 'i'), uint64(i))
		}
		if math.IsNaN(v.F) {
			return hashByte(hashByte(h, 'f'), 'n')
		}
		return hashUint64(hashByte(h, 'f'), math.Float64bits(v.F))
	case KindString:
		return hashString(hashByte(h, 's'), v.S)
	case KindBool:
		if v.B {
			return hashByte(h, 'T')
		}
		return hashByte(h, 'F')
	}
	return hashByte(h, '?')
}

// Hash64 returns a 64-bit hash of v consistent with KeyEqual:
// KeyEqual(a, b) implies Hash64(a) == Hash64(b). No string is built.
func (v Value) Hash64() uint64 { return v.HashInto(fnvOffset64) }

// KeyEqual reports whether v and w fall into the same Key() equivalence
// class — v.Key() == w.Key() — without building either string. Unlike
// Equal this treats NULL as identical to NULL and NaN as identical to
// NaN, which is exactly the row-identity semantics DISTINCT, GROUP BY,
// and hash-join buckets have always used via string keys.
func (v Value) KeyEqual(w Value) bool {
	switch v.K {
	case KindNull:
		return w.K == KindNull
	case KindString:
		return w.K == KindString && v.S == w.S
	case KindBool:
		return w.K == KindBool && v.B == w.B
	case KindInt:
		switch w.K {
		case KindInt:
			return v.I == w.I
		case KindFloat:
			if wi, ok := intFloat(w.F); ok {
				return wi == v.I
			}
		}
		return false
	case KindFloat:
		vi, vIntegral := intFloat(v.F)
		switch w.K {
		case KindInt:
			return vIntegral && vi == w.I
		case KindFloat:
			wi, wIntegral := intFloat(w.F)
			if vIntegral || wIntegral {
				return vIntegral && wIntegral && vi == wi
			}
			if math.IsNaN(v.F) && math.IsNaN(w.F) {
				return true
			}
			// Both non-integral, non-NaN (well-defined bits): the
			// shortest round-trip format Key() uses is injective here.
			return math.Float64bits(v.F) == math.Float64bits(w.F)
		}
		return false
	}
	return false
}

// AppendKey appends v's canonical key — byte-for-byte v.Key() — to dst
// and returns the extended slice. With a reused scratch buffer this is
// allocation-free.
func (v Value) AppendKey(dst []byte) []byte {
	switch v.K {
	case KindNull:
		return append(dst, 0, 'N')
	case KindInt:
		return strconv.AppendInt(append(dst, 0, 'i'), v.I, 10)
	case KindFloat:
		if i, ok := intFloat(v.F); ok {
			return strconv.AppendInt(append(dst, 0, 'i'), i, 10)
		}
		return strconv.AppendFloat(append(dst, 0, 'f'), v.F, 'g', -1, 64)
	case KindString:
		return append(append(dst, 's'), v.S...)
	case KindBool:
		if v.B {
			return append(dst, 0, 'b', '1')
		}
		return append(dst, 0, 'b', '0')
	}
	return dst
}

// TupleHash64 hashes a whole tuple consistently with TupleKeyEqual.
func TupleHash64(t Tuple) uint64 {
	h := fnvOffset64
	for _, v := range t {
		h = v.HashInto(h)
	}
	return h
}

// TupleKeyEqual reports whether two tuples are the same row under
// TupleKey identity: equal arity and pairwise KeyEqual values.
func TupleKeyEqual(a, b Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].KeyEqual(b[i]) {
			return false
		}
	}
	return true
}

// ValuesHash64 hashes a composite key given as a value slice (the
// GROUP BY key case), consistent with ValuesKeyEqual.
func ValuesHash64(vals []Value) uint64 {
	h := fnvOffset64
	for _, v := range vals {
		h = v.HashInto(h)
	}
	return h
}

// ValuesKeyEqual is TupleKeyEqual over plain value slices.
func ValuesKeyEqual(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].KeyEqual(b[i]) {
			return false
		}
	}
	return true
}
