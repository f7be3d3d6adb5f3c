package sqlx

import (
	"strings"

	"repro/internal/rel"
)

// This file is the rewrite half of the rule-based optimizer. Prepare
// lowers a parsed SelectStmt into a logical plan by applying, in order:
//
//  1. constant folding over the WHERE tree,
//  2. conjunct normalization (the AND tree is split into a flat list),
//  3. predicate pushdown — conjuncts referencing a single table binding
//     move below the joins into that table's filter list (never onto the
//     nullable side of a LEFT JOIN, which would change outer-join
//     semantics),
//  4. equality-conjunct extraction — "column = constant" conjuncts are
//     recorded as index access-path candidates.
//
// The logical plan references, but never mutates, the parsed statement,
// so a Plan stays immutable and cacheable. Binding to a concrete
// database snapshot — choosing index scans, join strategies and build
// sides — happens at Open time in access.go.

// logicalSelect is the rewritten form of one SELECT; union mirrors the
// statement's UNION chain.
type logicalSelect struct {
	s      *SelectStmt
	tables []*tableLogical
	// residual holds the WHERE conjuncts that could not be pushed to a
	// single table: join predicates, multi-table expressions, constants,
	// and predicates on the nullable side of a LEFT JOIN.
	residual []Expr
	union    *logicalSelect
}

// tableLogical is one FROM or JOIN table together with the predicates
// pushed down to it.
type tableLogical struct {
	ref  *TableRef
	join *Join // nil for the FROM table
	// filters are the pushed-down conjuncts, evaluated on this table's
	// rows below the join.
	filters []Expr
	// eq are the "column = constant" conjuncts among filters — the index
	// access-path candidates harvested by rewrite rule 4.
	eq []eqPred
}

// eqPred is one equality conjunct between a column of the owning binding
// and a constant value.
type eqPred struct {
	col  string
	val  rel.Value
	expr Expr // the original conjunct, for filter bookkeeping and display
}

// buildLogical lowers a SELECT (and its UNION chain) into its logical
// plan. db supplies schema information for resolving unqualified column
// references; it may be nil, in which case pushdown is limited to
// explicitly qualified predicates and single-table selects.
func buildLogical(db *rel.Database, s *SelectStmt) *logicalSelect {
	lg := &logicalSelect{s: s}
	if s.From != nil {
		lg.tables = append(lg.tables, &tableLogical{ref: s.From})
		for i := range s.Joins {
			j := &s.Joins[i]
			lg.tables = append(lg.tables, &tableLogical{ref: j.Table, join: j})
		}
	}
	for _, c := range splitConjuncts(foldExpr(s.Where)) {
		// Rule: drop conjuncts folded to constant TRUE.
		if lit, ok := c.(*Literal); ok {
			if b, ok := lit.Value.AsBool(); ok && b {
				continue
			}
		}
		ti := soleBinding(db, lg, c)
		if ti >= 0 && pushable(lg.tables[ti]) {
			tl := lg.tables[ti]
			tl.filters = append(tl.filters, c)
			if col, v, ok := eqConst(c); ok {
				tl.eq = append(tl.eq, eqPred{col: col, val: v, expr: c})
			}
		} else {
			lg.residual = append(lg.residual, c)
		}
	}
	if s.Union != nil {
		lg.union = buildLogical(db, s.Union)
	}
	return lg
}

// pushable reports whether predicates may move below tl's join: always
// for the FROM table and inner/cross joins, never for the right side of
// a LEFT JOIN (filtering it below the join would keep null-extended rows
// the WHERE clause must eliminate).
func pushable(tl *tableLogical) bool {
	return tl.join == nil || tl.join.Kind != JoinLeft
}

// splitConjuncts flattens an AND tree into its conjuncts.
func splitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if be, ok := e.(*BinaryExpr); ok && be.Op == "AND" {
		return append(splitConjuncts(be.Left), splitConjuncts(be.Right)...)
	}
	return []Expr{e}
}

// andJoin recombines conjuncts into one predicate (nil when empty).
func andJoin(list []Expr) Expr {
	if len(list) == 0 {
		return nil
	}
	e := list[0]
	for _, c := range list[1:] {
		e = &BinaryExpr{Op: "AND", Left: e, Right: c}
	}
	return e
}

// foldExpr returns e with constant subexpressions replaced by literal
// nodes. Folding is conservative: any evaluation error (division by
// zero, bad operand kinds) leaves the node unfolded so the error still
// surfaces at execution time. IN nodes are returned unchanged — the
// executor keys materialized subquery results by node identity, which a
// rebuild would break.
func foldExpr(e Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *Literal, *ColumnRef, *InExpr:
		return e
	case *BinaryExpr:
		l, r := foldExpr(x.Left), foldExpr(x.Right)
		n := x
		if l != x.Left || r != x.Right {
			n = (&BinaryExpr{Op: x.Op, Left: l, Right: r}).withLike()
		}
		return tryFold(n, isLiteral(l) && isLiteral(r))
	case *UnaryExpr:
		in := foldExpr(x.Expr)
		n := x
		if in != x.Expr {
			n = &UnaryExpr{Op: x.Op, Expr: in}
		}
		return tryFold(n, isLiteral(in))
	case *IsNullExpr:
		in := foldExpr(x.Expr)
		n := x
		if in != x.Expr {
			n = &IsNullExpr{Expr: in, Negate: x.Negate}
		}
		return tryFold(n, isLiteral(in))
	case *BetweenExpr:
		v, lo, hi := foldExpr(x.Expr), foldExpr(x.Lo), foldExpr(x.Hi)
		n := x
		if v != x.Expr || lo != x.Lo || hi != x.Hi {
			n = &BetweenExpr{Expr: v, Lo: lo, Hi: hi, Negate: x.Negate}
		}
		return tryFold(n, isLiteral(v) && isLiteral(lo) && isLiteral(hi))
	case *FuncExpr:
		if aggregateFuncs[x.Name] {
			return e
		}
		args := make([]Expr, len(x.Args))
		changed := false
		allLit := !x.Star
		for i, a := range x.Args {
			args[i] = foldExpr(a)
			changed = changed || args[i] != a
			allLit = allLit && isLiteral(args[i])
		}
		n := x
		if changed {
			n = &FuncExpr{Name: x.Name, Star: x.Star, Distinct: x.Distinct, Args: args}
		}
		return tryFold(n, allLit)
	}
	return e
}

func isLiteral(e Expr) bool {
	_, ok := e.(*Literal)
	return ok
}

// tryFold evaluates an all-literal node down to a literal, keeping the
// node on any evaluation error.
func tryFold(e Expr, allLiteral bool) Expr {
	if !allLiteral {
		return e
	}
	v, err := eval(e, &env{})
	if err != nil {
		return e
	}
	return &Literal{Value: v}
}

// soleBinding resolves every column reference in e (excluding subquery
// scopes) and returns the index of the single table binding they all
// belong to, or -1 when the conjunct spans bindings, references nothing,
// or cannot be resolved.
func soleBinding(db *rel.Database, lg *logicalSelect, e Expr) int {
	var refs []*ColumnRef
	collectColumnRefs(e, &refs)
	if len(refs) == 0 {
		return -1
	}
	target := -1
	for _, cr := range refs {
		ti := resolveBinding(db, lg, cr)
		if ti < 0 {
			return -1
		}
		if target == -1 {
			target = ti
		} else if target != ti {
			return -1
		}
	}
	return target
}

// resolveBinding maps one column reference to a table index: by binding
// name when qualified, by schema membership otherwise (requires db;
// ambiguous columns resolve to no binding and the conjunct stays
// residual, where evaluation reports the ambiguity).
func resolveBinding(db *rel.Database, lg *logicalSelect, cr *ColumnRef) int {
	if cr.Table != "" {
		for i, tl := range lg.tables {
			if strings.EqualFold(tl.ref.Binding(), cr.Table) {
				return i
			}
		}
		return -1
	}
	if len(lg.tables) == 1 {
		return 0
	}
	if db == nil {
		return -1
	}
	found := -1
	for i, tl := range lg.tables {
		r := db.Relation(tl.ref.Name)
		if r == nil {
			return -1
		}
		if r.Schema.Index(cr.Column) >= 0 {
			if found >= 0 {
				return -1
			}
			found = i
		}
	}
	return found
}

// collectColumnRefs gathers the column references of the current scope;
// it does not descend into IN subqueries, whose references resolve
// against their own FROM clause.
func collectColumnRefs(e Expr, out *[]*ColumnRef) {
	switch x := e.(type) {
	case *ColumnRef:
		*out = append(*out, x)
	case *BinaryExpr:
		collectColumnRefs(x.Left, out)
		collectColumnRefs(x.Right, out)
	case *UnaryExpr:
		collectColumnRefs(x.Expr, out)
	case *IsNullExpr:
		collectColumnRefs(x.Expr, out)
	case *BetweenExpr:
		collectColumnRefs(x.Expr, out)
		collectColumnRefs(x.Lo, out)
		collectColumnRefs(x.Hi, out)
	case *InExpr:
		collectColumnRefs(x.Expr, out)
		for _, a := range x.List {
			collectColumnRefs(a, out)
		}
	case *FuncExpr:
		for _, a := range x.Args {
			collectColumnRefs(a, out)
		}
	}
}

// eqConst recognizes "column = constant" conjuncts in either order.
func eqConst(e Expr) (string, rel.Value, bool) {
	be, ok := e.(*BinaryExpr)
	if !ok || be.Op != "=" {
		return "", rel.Value{}, false
	}
	if cr, ok := be.Left.(*ColumnRef); ok {
		if lit, ok := be.Right.(*Literal); ok {
			return cr.Column, lit.Value, true
		}
	}
	if cr, ok := be.Right.(*ColumnRef); ok {
		if lit, ok := be.Left.(*Literal); ok {
			return cr.Column, lit.Value, true
		}
	}
	return "", rel.Value{}, false
}
