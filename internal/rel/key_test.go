package rel

import (
	"strconv"
	"strings"
)

// This file holds the canonical composite-key encoding the hash paths
// (Hash64, KeyEqual, TupleKeyEqual) are tested against. A Value.Key may
// contain any byte, so composite keys cannot be built by joining with a
// separator — "a\x01" + sep + "b" would collide with "a" + sep + "\x01b".
// Length-prefixing each part makes the encoding injective.

// appendKeyPart appends one length-prefixed key part to b.
func appendKeyPart(b *strings.Builder, part string) {
	b.WriteString(strconv.Itoa(len(part)))
	b.WriteByte(':')
	b.WriteString(part)
}

// KeyJoin concatenates canonical value keys (Value.Key results) into one
// collision-free composite key via length-prefixed encoding:
// KeyJoin("a\x01", "b") and KeyJoin("a", "\x01b") stay distinct.
func KeyJoin(keys ...string) string {
	var b strings.Builder
	for _, k := range keys {
		appendKeyPart(&b, k)
	}
	return b.String()
}

// TupleKey renders a whole tuple as one canonical collision-free key:
// TupleKey(a) == TupleKey(b) iff the tuples have equal arity and
// pairwise-equal values (NULLs comparing as identical). It is the
// row-identity key used for DISTINCT, grouping, and UNION deduplication.
func TupleKey(t Tuple) string {
	var b strings.Builder
	for _, v := range t {
		appendKeyPart(&b, v.Key())
	}
	return b.String()
}

// appendKeyPartValue appends one length-prefixed key part (the TupleKey
// wire format) for v without any intermediate allocation: string parts
// know their length up front, and numeric/bool/null parts fit a small
// stack buffer.
func appendKeyPartValue(dst []byte, v Value) []byte {
	if v.K == KindString {
		dst = strconv.AppendInt(dst, int64(len(v.S)+1), 10)
		dst = append(dst, ':', 's')
		return append(dst, v.S...)
	}
	var tmp [40]byte
	part := v.AppendKey(tmp[:0])
	dst = strconv.AppendInt(dst, int64(len(part)), 10)
	dst = append(dst, ':')
	return append(dst, part...)
}

// AppendTupleKey appends the tuple's canonical row-identity key —
// byte-for-byte TupleKey(t) — to dst and returns the extended slice.
func AppendTupleKey(dst []byte, t Tuple) []byte {
	for _, v := range t {
		dst = appendKeyPartValue(dst, v)
	}
	return dst
}
