package sqlx

import (
	"fmt"
	"strings"

	"repro/internal/rel"
)

// Name resolution. Prepare (and Exec, for a SELECT) resolves every
// column reference once, per scope — each UNION branch, each IN
// subquery, star expansion, ON, WHERE, GROUP BY, HAVING, the select
// items and ORDER BY — to the FROM position of its relation and the
// column's index there. Unknown and ambiguous names fail then, whatever
// the data; at run time a column read is two slice indexes. Binding
// copies the expressions it resolves: the parsed statement is never
// written.

// colRef is a ColumnRef resolved to tuples[tab][col] of an env. It keeps
// the reference as written, for EXPLAIN and the statistics lookups.
type colRef struct {
	*ColumnRef
	tab, col int
}

func (*colRef) expr() {}

// resolver binds the expressions of one SELECT or DML statement against
// scope, the FROM relations visible to the clause being bound, in FROM
// order. It records the IN subqueries it prepares, so that every run
// materializes them first, and the aggregate calls it binds.
type resolver struct {
	db    *rel.Database
	scope []*tableLogical
	subs  []*InExpr
	aggs  []*FuncExpr
	args  []scalar // the aggregates' compiled arguments, nil for COUNT(*)
}

// column resolves cr: by binding name when qualified (the first such
// binding in FROM order), else to the one relation with such a column.
func (r *resolver) column(cr *ColumnRef) (*colRef, error) {
	if cr.Table != "" {
		for i, tl := range r.scope {
			if strings.EqualFold(tl.ref.Binding(), cr.Table) {
				c := tl.schema.Index(cr.Column)
				if c < 0 {
					return nil, fmt.Errorf("sqlx: no column %q in %q", cr.Column, cr.Table)
				}
				return &colRef{cr, i, c}, nil
			}
		}
		return nil, fmt.Errorf("sqlx: unknown table binding %q", cr.Table)
	}
	var found *colRef
	for i, tl := range r.scope {
		if c := tl.schema.Index(cr.Column); c >= 0 {
			if found != nil {
				return nil, fmt.Errorf("sqlx: ambiguous column %q", cr.Column)
			}
			found = &colRef{cr, i, c}
		}
	}
	if found == nil {
		return nil, fmt.Errorf("sqlx: unknown column %q", cr.Column)
	}
	return found, nil
}

// expr returns e bound in r's scope, with every function given as many
// arguments as it takes. Aggregates may appear where aggs is set
// (the select items and HAVING), and never inside another aggregate;
// each becomes an aggRef to its slot in r.aggs.
func (r *resolver) expr(e Expr, aggs bool) (Expr, error) {
	var err error
	sub := func(e Expr) Expr {
		if err == nil && e != nil {
			e, err = r.expr(e, aggs)
		}
		return e
	}
	list := func(in []Expr) []Expr {
		var out []Expr
		for _, a := range in {
			out = append(out, sub(a))
		}
		return out
	}
	switch x := e.(type) {
	case *ColumnRef:
		c, err := r.column(x)
		if err != nil {
			return nil, err
		}
		return c, nil
	case *BinaryExpr:
		e = &BinaryExpr{Op: x.Op, Left: sub(x.Left), Right: sub(x.Right)}
	case *UnaryExpr:
		e = &UnaryExpr{Op: x.Op, Expr: sub(x.Expr)}
	case *IsNullExpr:
		e = &IsNullExpr{Expr: sub(x.Expr), Negate: x.Negate}
	case *BetweenExpr:
		e = &BetweenExpr{Expr: sub(x.Expr), Lo: sub(x.Lo), Hi: sub(x.Hi), Negate: x.Negate}
	case *InExpr:
		in := &InExpr{Expr: sub(x.Expr), List: list(x.List), Sub: x.Sub, Negate: x.Negate}
		if x.Sub != nil && err == nil {
			if in.lg, err = buildLogical(r.db, x.Sub); err != nil {
				return nil, fmt.Errorf("sqlx: IN subquery: %w", err)
			}
			if len(in.lg.cols) != 1 {
				return nil, fmt.Errorf("sqlx: IN subquery must return one column, got %d", len(in.lg.cols))
			}
			r.subs = append(r.subs, in)
		}
		e = in
	case *FuncExpr:
		if !aggregateFuncs[x.Name] {
			a, ok := scalarArity[x.Name]
			switch n := len(x.Args); {
			case !ok:
				return nil, fmt.Errorf("sqlx: unknown function %s", x.Name)
			case a[0] == a[1] && n != a[0]:
				return nil, fmt.Errorf("sqlx: %s takes %d argument", x.Name, a[0])
			case n < a[0] || a[1] >= 0 && n > a[1]:
				return nil, fmt.Errorf("sqlx: %s takes %d or %d arguments", x.Name, a[0], a[1])
			}
			e = &FuncExpr{Name: x.Name, Star: x.Star, Distinct: x.Distinct, Args: list(x.Args)}
			break
		}
		switch {
		case !aggs:
			return nil, fmt.Errorf("sqlx: aggregate %s not allowed here", x.Name)
		case x.Star && x.Name != "COUNT":
			return nil, fmt.Errorf("sqlx: %s(*) not supported", x.Name)
		case !x.Star && len(x.Args) != 1:
			return nil, fmt.Errorf("sqlx: aggregate %s takes 1 argument", x.Name)
		}
		aggs = false
		f := &FuncExpr{Name: x.Name, Star: x.Star, Distinct: x.Distinct, Args: list(x.Args)}
		var arg scalar
		if err == nil && !x.Star {
			arg = compileScalar(f.Args[0])
		}
		r.aggs, r.args = append(r.aggs, f), append(r.args, arg)
		e = &aggRef{f, len(r.aggs) - 1}
	}
	return e, err
}

// exprs binds every expression of list.
func (r *resolver) exprs(list []Expr, aggs bool) ([]Expr, error) {
	out := make([]Expr, len(list))
	for i, e := range list {
		var err error
		if out[i], err = r.expr(e, aggs); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// orderKey is one resolved ORDER BY key: output column pos, or, when pos
// is negative, val evaluated over the joined row.
type orderKey struct {
	pos  int
	val  scalar
	desc bool
}

// orderKeys resolves an ORDER BY. With rows set (grouped selects and
// UNION heads, which sort their output rows) every key must name an
// output column; otherwise a key that names none is an expression over
// the joined row.
func (r *resolver) orderKeys(order []OrderItem, items []SelectItem, cols []string, rows bool) ([]orderKey, error) {
	keys := make([]orderKey, len(order))
	for i, oi := range order {
		k := orderKey{pos: outputPos(oi.Expr, items, cols, rows), desc: oi.Desc}
		if k.pos < 0 {
			if rows {
				return nil, fmt.Errorf("sqlx: ORDER BY expression must appear in grouped SELECT list")
			}
			e, err := r.expr(oi.Expr, false)
			if err != nil {
				return nil, err
			}
			k.val = compileScalar(e)
		}
		keys[i] = k
	}
	return keys, nil
}

// outputPos returns the output column an ORDER BY key names, or -1: an
// ordinal in range; else an unqualified name equal to an alias (over
// joined rows) or to an output column's name (over output rows); else,
// over output rows, an expression structurally equal to a select item.
func outputPos(e Expr, items []SelectItem, cols []string, rows bool) int {
	if lit, ok := e.(*Literal); ok && lit.Value.Kind() == rel.KindInt {
		if n, _ := lit.Value.AsInt(); n >= 1 && int(n) <= len(cols) {
			return int(n) - 1
		}
	}
	if cr, ok := e.(*ColumnRef); ok && cr.Table == "" {
		for i, name := range cols {
			if !rows {
				name = items[i].Alias
			}
			if strings.EqualFold(name, cr.Column) {
				return i
			}
		}
	}
	if rows {
		for i, it := range items {
			if exprString(it.Expr) == exprString(e) {
				return i
			}
		}
	}
	return -1
}
