package sqlx

import (
	"fmt"
	"strings"

	"repro/internal/rel"
)

// This file is the rewrite half of the rule-based optimizer. Prepare
// resolves a parsed SelectStmt's names (resolve.go) and lowers it into a
// logical plan by applying, in order:
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

// logicalSelect is the resolved and rewritten form of one SELECT; union
// mirrors the statement's UNION chain.
type logicalSelect struct {
	s      *SelectStmt
	tables []*tableLogical
	// residual holds the WHERE conjuncts that could not be pushed to a
	// single table: join predicates, multi-table expressions, constants,
	// and predicates on the nullable side of a LEFT JOIN.
	residual []cond
	union    *logicalSelect
	// items are the compiled select items, stars expanded, and cols their
	// output names.
	items     []scalar
	cols      []string
	groupBy   []Expr   // as bound, for estimates
	groupKeys []scalar // groupBy compiled
	having    []cond
	// grouped selects aggregate aggs, the aggregate calls of their items
	// and HAVING, per group, over aggArgs (nil for COUNT(*)).
	grouped bool
	aggs    []*FuncExpr
	aggArgs []scalar
	// order applies to this SELECT's rows, or, at a UNION head, to the
	// combined rows.
	order []orderKey
	// subs are this SELECT's IN subqueries (not its UNION branches'),
	// materialized before every run.
	subs []*InExpr
}

// tableLogical is one FROM or JOIN table together with the predicates
// pushed down to it.
type tableLogical struct {
	ref  *TableRef
	join *Join // nil for the FROM table
	// pos is the table's FROM position, and schema the one its names
	// resolved against.
	pos     int
	schema  *rel.Schema
	on      Expr   // the bound ON predicate
	onConds []cond // on's conjuncts
	// filters are the pushed-down conjuncts, evaluated on this table's
	// rows below the join.
	filters []cond
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

// buildLogical resolves a SELECT (and its UNION chain) against db's
// schemas and lowers it into its logical plan.
func buildLogical(db *rel.Database, s *SelectStmt) (*logicalSelect, error) {
	lg := &logicalSelect{s: s}
	r := &resolver{db: db}
	for i := -1; s.From != nil && i < len(s.Joins); i++ {
		tl := &tableLogical{ref: s.From, pos: i + 1}
		if i >= 0 {
			tl.join = &s.Joins[i]
			tl.ref = tl.join.Table
		}
		rl := db.Relation(tl.ref.Name)
		if rl == nil {
			return nil, fmt.Errorf("sqlx: no such table %q", tl.ref.Name)
		}
		tl.schema = rl.Schema
		lg.tables = append(lg.tables, tl)
		if tl.join != nil && tl.join.On != nil {
			// ON sees the tables joined so far and its own.
			r.scope = lg.tables
			var err error
			if tl.on, err = r.expr(tl.join.On, false); err != nil {
				return nil, err
			}
			tl.onConds = newConds(tl.on)
		}
	}
	r.scope = lg.tables
	// Select items, stars expanded; items keeps them as written for
	// ORDER BY.
	var items []SelectItem
	for _, it := range s.Items {
		if !it.Star {
			e, err := r.expr(it.Expr, true)
			if err != nil {
				return nil, err
			}
			items = append(items, it)
			lg.items = append(lg.items, compileScalar(e))
			lg.cols = append(lg.cols, itemName(it))
			continue
		}
		n := len(items)
		for _, tl := range lg.tables {
			b := tl.ref.Binding()
			if it.StarTable != "" && !strings.EqualFold(it.StarTable, b) {
				continue
			}
			for c, col := range tl.schema.Columns {
				cr := &ColumnRef{Table: b, Column: col.Name}
				items = append(items, SelectItem{Expr: cr})
				lg.items = append(lg.items, scalarOf(&colRef{cr, tl.pos, c}))
				lg.cols = append(lg.cols, col.Name)
			}
		}
		if it.StarTable != "" && len(items) == n {
			return nil, fmt.Errorf("sqlx: unknown table binding %q", it.StarTable)
		}
	}
	lg.grouped = len(r.aggs) > 0 || len(s.GroupBy) > 0
	where, err := r.expr(s.Where, false)
	if err != nil {
		return nil, err
	}
	for _, c := range splitConjuncts(foldExpr(where)) {
		// Rule: drop conjuncts folded to constant TRUE.
		if lit, ok := c.(*Literal); ok {
			if b, ok := lit.Value.AsBool(); ok && b {
				continue
			}
		}
		ti := soleBinding(c)
		if ti >= 0 && pushable(lg.tables[ti]) {
			tl := lg.tables[ti]
			tl.filters = append(tl.filters, newCond(c))
			if col, v, ok := eqConst(c); ok {
				tl.eq = append(tl.eq, eqPred{col: col, val: v, expr: c})
			}
		} else {
			lg.residual = append(lg.residual, newCond(c))
		}
	}
	if lg.groupBy, err = r.exprs(s.GroupBy, false); err != nil {
		return nil, err
	}
	lg.groupKeys = compileScalars(lg.groupBy...)
	having, err := r.expr(s.Having, true)
	if err != nil {
		return nil, err
	}
	lg.having = newConds(having)
	rows := lg.grouped
	if s.Union != nil {
		if lg.union, err = buildLogical(db, s.Union); err != nil {
			return nil, err
		}
		for u := lg.union; u != nil; u = u.union {
			if len(u.cols) != len(lg.cols) {
				return nil, fmt.Errorf("sqlx: UNION arity mismatch: %d vs %d columns", len(lg.cols), len(u.cols))
			}
		}
		items, rows = nil, true
	}
	if lg.order, err = r.orderKeys(s.OrderBy, items, lg.cols, rows); err != nil {
		return nil, err
	}
	lg.subs, lg.aggs, lg.aggArgs = r.subs, r.aggs, r.args
	return lg, nil
}

// relation returns tl's relation in db. The plan reads columns at the
// indexes Prepare resolved, so the relation must still have the columns
// it had then: DDL may run between Prepare and Open.
func (tl *tableLogical) relation(db *rel.Database) (*rel.Relation, error) {
	r := db.Relation(tl.ref.Name)
	if r == nil {
		return nil, fmt.Errorf("sqlx: no such table %q", tl.ref.Name)
	}
	if r.Schema != tl.schema {
		now, then := r.Schema.Columns, tl.schema.Columns
		same := len(now) == len(then)
		for i := 0; same && i < len(now); i++ {
			same = strings.EqualFold(now[i].Name, then[i].Name)
		}
		if !same {
			return nil, fmt.Errorf("sqlx: table %q changed since the statement was prepared", tl.ref.Name)
		}
	}
	return r, nil
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

// foldExpr returns e with constant subexpressions replaced by literal
// nodes: the WHERE tree before it is split and pushed down, and every
// expression as it is compiled. Folding is conservative: any evaluation error (division by
// zero, bad operand kinds) leaves the node unfolded so the error still
// surfaces at execution time. IN nodes are returned unchanged — the
// executor keys materialized subquery results by node identity, which a
// rebuild would break.
func foldExpr(e Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *Literal, *colRef, *InExpr:
		return e
	case *BinaryExpr:
		l, r := foldExpr(x.Left), foldExpr(x.Right)
		n := x
		if l != x.Left || r != x.Right {
			n = &BinaryExpr{Op: x.Op, Left: l, Right: r}
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
	v, err := scalarOf(e)(&env{})
	if err != nil {
		return e
	}
	return &Literal{Value: v}
}

// soleBinding returns the FROM position of the single table every
// column reference in e (excluding subquery scopes) belongs to, or -1
// when the conjunct spans tables or references none.
func soleBinding(e Expr) int {
	var refs []*colRef
	collectColumnRefs(e, &refs)
	target := -1
	for i, c := range refs {
		if i > 0 && c.tab != target {
			return -1
		}
		target = c.tab
	}
	return target
}

// collectColumnRefs gathers the column references of the current scope;
// it does not descend into IN subqueries, whose references resolve
// against their own FROM clause.
func collectColumnRefs(e Expr, out *[]*colRef) {
	switch x := e.(type) {
	case *colRef:
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
	if be, ok := e.(*BinaryExpr); ok && be.Op == "=" {
		if c, v, _, ok := colConst(be); ok {
			return c.Column, v, true
		}
	}
	return "", rel.Value{}, false
}
