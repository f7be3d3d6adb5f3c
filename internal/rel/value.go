// Package rel implements the in-memory relational substrate that ALADIN
// builds on. The paper assumes a relational database as the basis of the
// warehouse (Section 1: "ALADIN uses a relational database as its basis");
// this package provides typed values, schemas, relations, and a catalog,
// deliberately without requiring any integrity constraints up front —
// constraints are *discovered* later by the profiling and discovery layers.
package rel

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the value types the engine understands. Imported
// life-science data is frequently untyped text, so KindString is the
// default for generic parsers; the profiler may later observe that a
// column is numeric.
type Kind int

const (
	// KindNull is the type of the SQL NULL value.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE float.
	KindFloat
	// KindString is an uninterpreted text value.
	KindString
	// KindBool is a boolean.
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "REAL"
	case KindString:
		return "TEXT"
	case KindBool:
		return "BOOLEAN"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Value is a single relational value. The zero Value is NULL.
type Value struct {
	K Kind
	I int64
	F float64
	S string
	B bool
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(i int64) Value { return Value{K: KindInt, I: i} }

// Float returns a float value.
func Float(f float64) Value { return Value{K: KindFloat, F: f} }

// String returns a text value. The name collides with fmt.Stringer on
// purpose-adjacent grounds; construction reads as rel.Str to avoid that.
func Str(s string) Value { return Value{K: KindString, S: s} }

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{K: KindBool, B: b} }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// Kind returns the kind of v.
func (v Value) Kind() Kind { return v.K }

// AsInt returns the value as an int64, coercing floats and numeric strings.
func (v Value) AsInt() (int64, bool) {
	switch v.K {
	case KindInt:
		return v.I, true
	case KindFloat:
		return int64(v.F), true
	case KindString:
		i, err := strconv.ParseInt(strings.TrimSpace(v.S), 10, 64)
		return i, err == nil
	case KindBool:
		if v.B {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// AsFloat returns the value as a float64, coercing ints and numeric strings.
func (v Value) AsFloat() (float64, bool) {
	switch v.K {
	case KindInt:
		return float64(v.I), true
	case KindFloat:
		return v.F, true
	case KindString:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64)
		return f, err == nil
	case KindBool:
		if v.B {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// AsString renders the value as text. NULL renders as the empty string.
func (v Value) AsString() string {
	switch v.K {
	case KindNull:
		return ""
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		if v.B {
			return "true"
		}
		return "false"
	}
	return ""
}

// AsBool returns the value interpreted as a boolean.
func (v Value) AsBool() (bool, bool) {
	switch v.K {
	case KindBool:
		return v.B, true
	case KindInt:
		return v.I != 0, true
	case KindFloat:
		return v.F != 0, true
	case KindString:
		b, err := strconv.ParseBool(v.S)
		return b, err == nil
	}
	return false, false
}

// String implements fmt.Stringer, quoting text values.
func (v Value) String() string {
	if v.K == KindNull {
		return "NULL"
	}
	if v.K == KindString {
		return strconv.Quote(v.S)
	}
	return v.AsString()
}

// Equal reports whether two values are equal. NULL equals nothing,
// including NULL (SQL semantics); use both IsNull checks where three-valued
// logic is not wanted.
func (v Value) Equal(w Value) bool {
	if v.K == KindNull || w.K == KindNull {
		return false
	}
	if v.K == w.K {
		switch v.K {
		case KindInt:
			return v.I == w.I
		case KindFloat:
			return v.F == w.F
		case KindString:
			return v.S == w.S
		case KindBool:
			return v.B == w.B
		}
	}
	// Numeric cross-kind comparison.
	if isNumeric(v.K) && isNumeric(w.K) {
		a, _ := v.AsFloat()
		b, _ := w.AsFloat()
		return a == b
	}
	return false
}

// Compare orders two values: -1, 0, +1. NULL sorts before everything.
// Mixed numeric kinds compare numerically; otherwise values compare as
// text, which gives a stable total order over heterogeneous data.
func (v Value) Compare(w Value) int {
	if v.K == KindNull && w.K == KindNull {
		return 0
	}
	if v.K == KindNull {
		return -1
	}
	if w.K == KindNull {
		return 1
	}
	if isNumeric(v.K) && isNumeric(w.K) {
		a, _ := v.AsFloat()
		b, _ := w.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
	a, b := v.AsString(), w.AsString()
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Key returns a canonical string usable as a map key such that
// Key(a)==Key(b) iff a.Equal(b) for same-kind values (and numerically
// equal cross-kind numerics).
func (v Value) Key() string {
	switch v.K {
	case KindNull:
		return "\x00N"
	case KindInt:
		return "\x00i" + strconv.FormatInt(v.I, 10)
	case KindFloat:
		if v.F == float64(int64(v.F)) {
			return "\x00i" + strconv.FormatInt(int64(v.F), 10)
		}
		return "\x00f" + strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return "s" + v.S
	case KindBool:
		if v.B {
			return "\x00b1"
		}
		return "\x00b0"
	}
	return ""
}

func isNumeric(k Kind) bool { return k == KindInt || k == KindFloat }
