package sqlx

import (
	"cmp"
	"fmt"
	"math"
	"strings"

	"repro/internal/rel"
)

// tri is a three-valued truth value, NULL greatest, so that of two
// values neither of which decides an AND or OR, max is its answer.
type tri uint8

const triFalse, triTrue, triNull tri = 0, 1, 2

func triOf(b bool) tri {
	if b {
		return triTrue
	}
	return triFalse
}

type pred func(*env) (tri, error)
type scalar func(*env) (rel.Value, error)

// compileScalar folds e's constants and compiles it as a value, and
// compileScalars each expression of list.
func compileScalar(e Expr) scalar { return scalarOf(foldExpr(e)) }

func compileScalars(list ...Expr) []scalar {
	out := make([]scalar, len(list))
	for i, e := range list {
		out[i] = compileScalar(e)
	}
	return out
}

// cond is one bound conjunct: the expression the planner reads and
// EXPLAIN renders, and its compiled test.
type cond struct {
	expr Expr
	test pred
}

func newCond(e Expr) cond { return cond{e, predOf(foldExpr(e))} }

// newConds compiles each conjunct of e's AND tree.
func newConds(e Expr) []cond {
	var out []cond
	for _, c := range splitConjuncts(e) {
		out = append(out, newCond(c))
	}
	return out
}

// allHold reports whether every conjunct is TRUE, evaluating them as a
// left-deep AND tree does: in order, stopping at the first FALSE or
// error, and going on past a NULL.
func allHold(conds []cond, e *env) (bool, error) {
	ok := true
	for i := range conds {
		t, err := conds[i].test(e)
		if err != nil || t == triFalse {
			return false, err
		}
		ok = ok && t == triTrue
	}
	return ok, nil
}

// predOf compiles a folded expression as a predicate: AND, OR and NOT in
// three values, a column against a literal in place (slotPred), and
// anything else by its value: NULL is unknown, any other value TRUE
// when AsBool reads it as true.
func predOf(e Expr) pred {
	switch x := e.(type) {
	case *BinaryExpr:
		switch x.Op {
		case "AND":
			return logicOf(predOf(x.Left), predOf(x.Right), triFalse)
		case "OR":
			return logicOf(predOf(x.Left), predOf(x.Right), triTrue)
		}
		if p := slotPred(x); p != nil {
			return p
		}
	case *UnaryExpr:
		if x.Op == "NOT" {
			p := predOf(x.Expr)
			return func(e *env) (tri, error) {
				t, err := p(e)
				return [...]tri{triTrue, triFalse, triNull}[t], err
			}
		}
	}
	v := scalarOf(e)
	return func(e *env) (tri, error) {
		val, err := v(e)
		if err != nil || val.IsNull() {
			return triNull, err
		}
		b, _ := val.AsBool()
		return triOf(b), nil
	}
}

// scalarOf compiles a folded expression as a value; a condition's value
// is TRUE, FALSE or NULL.
func scalarOf(e Expr) scalar {
	switch x := e.(type) {
	case *Literal:
		v := x.Value
		return func(*env) (rel.Value, error) { return v, nil }
	case *colRef:
		tab, col := x.tab, x.col
		return func(e *env) (rel.Value, error) { return e.tuples[tab][col], nil }
	case *aggRef:
		i := x.i
		return func(e *env) (rel.Value, error) { return e.aggs[i], nil }
	case *UnaryExpr:
		if x.Op == "NOT" {
			return valueOf(predOf(x))
		}
		if x.Op == "-" {
			v := scalarOf(x.Expr)
			return func(e *env) (rel.Value, error) {
				val, err := v(e)
				if err != nil || val.IsNull() {
					return rel.Null(), err
				}
				if val.K == rel.KindInt {
					return rel.Int(-val.I), nil
				}
				f, ok := val.AsFloat()
				if !ok {
					return rel.Null(), fmt.Errorf("sqlx: cannot negate %v", val)
				}
				return rel.Float(-f), nil
			}
		}
	case *BinaryExpr:
		if x.Op == "AND" || x.Op == "OR" {
			return valueOf(predOf(x))
		}
		if f := binaryOp(x); f != nil {
			l, r := scalarOf(x.Left), scalarOf(x.Right)
			return func(e *env) (rel.Value, error) {
				lv, err := l(e)
				if err != nil {
					return lv, err
				}
				rv, err := r(e)
				if err != nil || lv.IsNull() || rv.IsNull() {
					return rel.Null(), err
				}
				return f(lv, rv)
			}
		}
	case *IsNullExpr:
		v, negate := scalarOf(x.Expr), x.Negate
		return func(e *env) (rel.Value, error) {
			val, err := v(e)
			return rel.Bool(val.IsNull() != negate), err
		}
	case *InExpr:
		return inOf(x)
	case *BetweenExpr:
		return betweenOf(x)
	case *FuncExpr:
		return funcOf(x)
	}
	err := fmt.Errorf("sqlx: cannot evaluate %T", e)
	return func(*env) (rel.Value, error) { return rel.Null(), err }
}

// valueOf turns a predicate into a value.
func valueOf(p pred) scalar {
	return func(e *env) (rel.Value, error) {
		t, err := p(e)
		if t == triNull || err != nil {
			return rel.Null(), err
		}
		return rel.Bool(t == triTrue), nil
	}
}

// logicOf compiles three-valued AND (stop is FALSE) or OR (stop is
// TRUE): r runs unless l is stop; either one at stop decides, else a
// NULL does.
func logicOf(l, r pred, stop tri) pred {
	return func(e *env) (tri, error) {
		lt, err := l(e)
		if lt == stop || err != nil {
			return lt, err
		}
		rt, err := r(e)
		if rt == stop || err != nil {
			return rt, err
		}
		return max(lt, rt), nil
	}
}

// binaryOp returns what x's operator makes of two non-NULL operands (a
// NULL one makes NULL), or nil for AND, OR and operators the parser
// never makes. A constant LIKE pattern compiles here, once.
func binaryOp(x *BinaryExpr) func(l, r rel.Value) (rel.Value, error) {
	if op, ok := cmpOps[x.Op]; ok {
		return func(l, r rel.Value) (rel.Value, error) { return rel.Bool(op.accepts(l, r)), nil }
	}
	switch op := x.Op; op {
	case "||":
		return func(l, r rel.Value) (rel.Value, error) { return rel.Str(l.AsString() + r.AsString()), nil }
	case "+", "-", "*", "/", "%":
		return func(l, r rel.Value) (rel.Value, error) { return arith(op[0], l, r) }
	case "LIKE":
		if lit, ok := x.Right.(*Literal); ok && !lit.Value.IsNull() {
			m := compileLike(lit.Value.AsString())
			return func(l, _ rel.Value) (rel.Value, error) { return rel.Bool(m.match(l.AsString())), nil }
		}
		return func(l, r rel.Value) (rel.Value, error) {
			return rel.Bool(compileLike(r.AsString()).match(l.AsString())), nil
		}
	}
	return nil
}

// cmpOp is a comparison operator: the signs of rel.Value.Compare it
// accepts, by sign+1, or for "=" and "<>" (exact) whether
// rel.Value.Equal must hold, at signs[1].
type cmpOp struct {
	signs [3]bool
	exact bool
}

var cmpOps = map[string]cmpOp{
	"=": {[3]bool{false, true, false}, true}, "<>": {[3]bool{true, false, true}, true},
	"<": {signs: [3]bool{true, false, false}}, "<=": {signs: [3]bool{true, true, false}},
	">": {signs: [3]bool{false, false, true}}, ">=": {signs: [3]bool{false, true, true}},
}

// accepts compares two non-NULL values.
func (o cmpOp) accepts(l, r rel.Value) bool {
	if o.exact {
		return l.Equal(r) == o.signs[1]
	}
	return o.signs[l.Compare(r)+1]
}

// slotPred compiles a column compared with a non-NULL literal to read
// its tuple slot in place (nil for any other expression). A string or
// integer slot of the literal's kind compares typed, as Equal and
// Compare do: exactly for "=" and "<>", integers as floats otherwise.
func slotPred(x *BinaryExpr) pred {
	c, k, opName, ok := colConst(x)
	op, isCmp := cmpOps[opName]
	if !ok || !isCmp || k.IsNull() {
		return nil
	}
	tab, col := c.tab, c.col
	return func(e *env) (tri, error) {
		v := &e.tuples[tab][col]
		switch {
		case v.K == rel.KindNull:
			return triNull, nil
		case v.K != k.K:
		case v.K == rel.KindString && op.exact:
			return triOf((v.S == k.S) == op.signs[1]), nil
		case v.K == rel.KindString:
			return triOf(op.signs[strings.Compare(v.S, k.S)+1]), nil
		case v.K == rel.KindInt && op.exact:
			return triOf((v.I == k.I) == op.signs[1]), nil
		case v.K == rel.KindInt:
			return triOf(op.signs[cmp.Compare(float64(v.I), float64(k.I))+1]), nil
		}
		return triOf(op.accepts(*v, k)), nil
	}
}

// inOf compiles x [NOT] IN (list) or (subquery): NULL for a NULL probe.
// A list's items evaluate in order until one Equal-matches; a
// subquery's set is the run's, materialized before it.
func inOf(x *InExpr) scalar {
	v, items, negate := scalarOf(x.Expr), compileScalars(x.List...), x.Negate
	return func(e *env) (rel.Value, error) {
		val, err := v(e)
		if err != nil || val.IsNull() {
			return rel.Null(), err
		}
		match := false
		if x.Sub != nil {
			var set *inSet
			if e.rt != nil {
				set = e.rt.subs[x]
			}
			if set == nil {
				return rel.Null(), fmt.Errorf("sqlx: internal: IN subquery not materialized")
			}
			match = set.contains(val)
		}
		for _, it := range items {
			iv, err := it(e)
			if err != nil {
				return rel.Null(), err
			}
			if match = val.Equal(iv); match {
				break
			}
		}
		return rel.Bool(match != negate), nil
	}
}

// betweenOf compiles x [NOT] BETWEEN lo AND hi: NULL when any of the
// three is NULL.
func betweenOf(x *BetweenExpr) scalar {
	args, negate := compileScalars(x.Expr, x.Lo, x.Hi), x.Negate
	return func(e *env) (rel.Value, error) {
		var v [3]rel.Value
		for i, a := range args {
			var err error
			if v[i], err = a(e); err != nil {
				return rel.Null(), err
			}
		}
		if v[0].IsNull() || v[1].IsNull() || v[2].IsNull() {
			return rel.Null(), nil
		}
		return rel.Bool((v[0].Compare(v[1]) >= 0 && v[0].Compare(v[2]) <= 0) != negate), nil
	}
}

// arith applies + - * / % to two non-NULL values: INT op INT stays INT,
// anything else that reads as a number gives FLOAT.
func arith(op byte, l, r rel.Value) (rel.Value, error) {
	a, okA := l.AsFloat()
	b, okB := r.AsFloat()
	switch ints := l.K == rel.KindInt && r.K == rel.KindInt; {
	case !ints && (!okA || !okB):
		return rel.Null(), fmt.Errorf("sqlx: non-numeric operands for %q", string(op))
	case b == 0 && (op == '/' || op == '%'):
		return rel.Null(), fmt.Errorf("sqlx: division by zero")
	case ints:
		return rel.Int(apply(op, l.I, r.I, func(a, b int64) int64 { return a % b })), nil
	}
	return rel.Float(apply(op, a, b, math.Mod)), nil
}

// apply applies + - * / to a and b, or mod for %.
func apply[T int64 | float64](op byte, a, b T, mod func(a, b T) T) T {
	switch op {
	case '+':
		return a + b
	case '-':
		return a - b
	case '*':
		return a * b
	case '/':
		return a / b
	}
	return mod(a, b)
}

// scalarArity names the scalar functions, with each one's least and most
// argument counts (-1: no most): the parser knows a call by it, and the
// resolver checks the call's arguments against it.
var scalarArity = map[string][2]int{
	"LENGTH": {1, 1}, "LOWER": {1, 1}, "UPPER": {1, 1}, "TRIM": {1, 1}, "ABS": {1, 1},
	"ROUND": {1, 2}, "SUBSTR": {2, 3}, "COALESCE": {0, -1},
}

// funcOf compiles a scalar function call: every argument evaluates, in
// order, before the function applies.
func funcOf(x *FuncExpr) scalar {
	args, name := compileScalars(x.Args...), x.Name
	return func(e *env) (rel.Value, error) {
		var buf [3]rel.Value
		vals := buf[:0]
		for _, a := range args {
			v, err := a(e)
			if err != nil {
				return rel.Null(), err
			}
			vals = append(vals, v)
		}
		return applyScalar(name, vals)
	}
}

// applyScalar applies the scalar function name to its evaluated
// arguments: NULL in, NULL out, but for COALESCE.
func applyScalar(name string, args []rel.Value) (rel.Value, error) {
	if name == "COALESCE" {
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return rel.Null(), nil
	}
	if len(args) == 0 || args[0].IsNull() {
		return rel.Null(), nil
	}
	s := args[0]
	f, numeric := s.AsFloat()
	switch name {
	case "LENGTH":
		return rel.Int(int64(len(s.AsString()))), nil
	case "LOWER":
		return rel.Str(strings.ToLower(s.AsString())), nil
	case "UPPER":
		return rel.Str(strings.ToUpper(s.AsString())), nil
	case "TRIM":
		return rel.Str(strings.TrimSpace(s.AsString())), nil
	case "ABS", "ROUND":
		switch {
		case !numeric:
			return rel.Null(), fmt.Errorf("sqlx: %s of non-numeric", name)
		case name == "ROUND":
		case s.K == rel.KindInt:
			return rel.Int(max(s.I, -s.I)), nil
		default:
			return rel.Float(math.Abs(f)), nil
		}
		digits := int64(0)
		if len(args) == 2 {
			digits, _ = args[1].AsInt()
		}
		scale := math.Pow(10, float64(digits))
		return rel.Float(math.Round(f*scale) / scale), nil
	case "SUBSTR":
		str := s.AsString()
		start, _ := args[1].AsInt()
		if start = max(start, 1); int(start) > len(str) {
			return rel.Str(""), nil
		}
		rest := str[start-1:]
		if len(args) == 3 {
			n, _ := args[2].AsInt()
			if n = max(n, 0); int(n) < len(rest) {
				rest = rest[:n]
			}
		}
		return rel.Str(rest), nil
	}
	return rel.Null(), fmt.Errorf("sqlx: unknown function %s", name)
}
