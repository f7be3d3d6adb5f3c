package rel

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Null(), KindNull},
		{Int(42), KindInt},
		{Float(3.14), KindFloat},
		{Str("abc"), KindString},
		{Bool(true), KindBool},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("value %v: kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
	}
}

func TestValueIsNull(t *testing.T) {
	if !Null().IsNull() {
		t.Error("Null().IsNull() = false")
	}
	if Int(0).IsNull() {
		t.Error("Int(0).IsNull() = true")
	}
	if Str("").IsNull() {
		t.Error("Str(\"\").IsNull() = true; empty string is not NULL")
	}
}

func TestValueAsInt(t *testing.T) {
	cases := []struct {
		v    Value
		want int64
		ok   bool
	}{
		{Int(7), 7, true},
		{Float(7.9), 7, true},
		{Str("12"), 12, true},
		{Str(" 12 "), 12, true},
		{Str("x"), 0, false},
		{Bool(true), 1, true},
		{Null(), 0, false},
	}
	for _, c := range cases {
		got, ok := c.v.AsInt()
		if got != c.want || ok != c.ok {
			t.Errorf("%v.AsInt() = %d,%v want %d,%v", c.v, got, ok, c.want, c.ok)
		}
	}
}

func TestValueAsFloat(t *testing.T) {
	if f, ok := Str("2.5").AsFloat(); !ok || f != 2.5 {
		t.Errorf("Str(2.5).AsFloat() = %v,%v", f, ok)
	}
	if _, ok := Null().AsFloat(); ok {
		t.Error("Null().AsFloat() ok = true")
	}
}

func TestValueAsString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), ""},
		{Int(-3), "-3"},
		{Float(0.5), "0.5"},
		{Str("hello"), "hello"},
		{Bool(false), "false"},
	}
	for _, c := range cases {
		if got := c.v.AsString(); got != c.want {
			t.Errorf("%v.AsString() = %q want %q", c.v, got, c.want)
		}
	}
}

func TestValueEqualNullSemantics(t *testing.T) {
	if Null().Equal(Null()) {
		t.Error("NULL = NULL must be false (SQL three-valued logic)")
	}
	if Null().Equal(Int(0)) || Int(0).Equal(Null()) {
		t.Error("NULL = 0 must be false")
	}
}

func TestValueEqualCrossNumeric(t *testing.T) {
	if !Int(3).Equal(Float(3.0)) {
		t.Error("Int(3) should equal Float(3.0)")
	}
	if Int(3).Equal(Str("3")) {
		t.Error("Int(3) should not equal Str(\"3\") — no implicit text coercion")
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Null(), Int(1), -1},
		{Int(1), Null(), 1},
		{Null(), Null(), 0},
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Float(2.5), Int(2), 1},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("b"), 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestValueKeyDistinguishes(t *testing.T) {
	// Keys must distinguish values of different kinds that render the same.
	if Int(1).Key() == Str("1").Key() {
		t.Error("Key collision between Int(1) and Str(\"1\")")
	}
	// But numerically equal int/float share a key.
	if Int(2).Key() != Float(2.0).Key() {
		t.Error("Int(2) and Float(2.0) should share a key")
	}
	if Str("true").Key() == Bool(true).Key() {
		t.Error("Key collision between Str(\"true\") and Bool(true)")
	}
}

// Parse guesses the most specific kind for a raw text token: integers,
// floats, booleans, otherwise text. Empty strings become NULL. The tests
// here type tuples from text with it.
func Parse(raw string) Value {
	t := strings.TrimSpace(raw)
	if t == "" {
		return Null()
	}
	if i, err := strconv.ParseInt(t, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(t, 64); err == nil {
		return Float(f)
	}
	switch strings.ToLower(t) {
	case "true":
		return Bool(true)
	case "false":
		return Bool(false)
	}
	return Str(raw)
}

func TestParse(t *testing.T) {
	cases := []struct {
		raw  string
		want Value
	}{
		{"", Null()},
		{"  ", Null()},
		{"42", Int(42)},
		{"-7", Int(-7)},
		{"2.5", Float(2.5)},
		{"true", Bool(true)},
		{"FALSE", Bool(false)},
		{"P12345", Str("P12345")},
	}
	for _, c := range cases {
		got := Parse(c.raw)
		if got.Kind() != c.want.Kind() {
			t.Errorf("Parse(%q).Kind = %v want %v", c.raw, got.Kind(), c.want.Kind())
			continue
		}
		if !got.IsNull() && !got.Equal(c.want) {
			t.Errorf("Parse(%q) = %v want %v", c.raw, got, c.want)
		}
	}
}

// Property: Compare is antisymmetric and Equal implies Compare==0 for
// non-null values.
func TestValueCompareProperties(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		if va.Compare(vb) != -vb.Compare(va) {
			return false
		}
		if va.Equal(vb) != (va.Compare(vb) == 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: for strings, Key is injective.
func TestValueKeyInjectiveOnStrings(t *testing.T) {
	f := func(a, b string) bool {
		if a == b {
			return Str(a).Key() == Str(b).Key()
		}
		return Str(a).Key() != Str(b).Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Parse round-trips integers through AsString.
func TestParseIntRoundTrip(t *testing.T) {
	f := func(i int64) bool {
		v := Parse(Int(i).AsString())
		got, ok := v.AsInt()
		return ok && got == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
