package sqlx

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync/atomic"

	"repro/internal/rel"
)

// This file holds the per-execution state shared by every operator of
// one open cursor, and the helpers the operators in vec*.go share. Rows
// are produced on demand, so a LIMIT query stops reading its inputs as
// soon as the limit is satisfied, and cancellation is checked every
// batch of stored-tuple reads. Exec is a collect-all wrapper over the
// same pipeline (see exec.go).

// ctxBatch is how many stored-tuple reads happen between context checks.
const ctxBatch = 64

// run carries the per-execution state shared by every operator of one
// open cursor: the scanned-tuple probe, the cancellation tick counter,
// and the materialized results of uncorrelated IN subqueries (keyed by
// AST node so a shared, cached Plan is never mutated). Parallel
// execution gives each morsel a private run sharing the parent's subs;
// scanned is updated atomically so morsel workers can aggregate into
// the parent while the consumer reads it.
type run struct {
	scanned int64 // atomic
	ticks   int
	subs    map[*InExpr]*inSet
	// workers is the parallelism degree for eligible scan chains
	// (0 or 1 = serial).
	workers int
	// explain makes buildSelect return the plan node of every operator
	// it builds (EXPLAIN); analyze also meters every operator by its node
	// (EXPLAIN ANALYZE). Subqueries materialize before either is set, so
	// they run untraced.
	explain, analyze bool
	// closers run when the cursor is closed or exhausted — cancel
	// functions that stop parallel producers.
	closers []func()
}

func newRun() *run {
	return &run{subs: make(map[*InExpr]*inSet)}
}

// tick counts one stored-tuple read and checks ctx every ctxBatch reads.
func (rt *run) tick(ctx context.Context) error {
	atomic.AddInt64(&rt.scanned, 1)
	rt.ticks++
	if rt.ticks >= ctxBatch {
		rt.ticks = 0
		return ctx.Err()
	}
	return nil
}

// close runs the registered closers (idempotent: they are context
// cancel functions).
func (rt *run) close() {
	for _, f := range rt.closers {
		f()
	}
}

// item is one element flowing between operators: an environment of table
// bindings before projection, a projected output row after. The order
// operator keeps both so ORDER BY can reference non-projected columns.
type item struct {
	env *env
	row rel.Tuple
}

// materializeAll runs the uncorrelated IN (SELECT ...) subqueries of a
// SELECT and its UNION chain into the run, before the build. The logical
// plan partitions the WHERE conjuncts, so every pushed filter and
// residual conjunct is walked (IN nodes keep their identity through the
// rewrite, which keys the materialized results), and HAVING.
func (rt *run) materializeAll(ctx context.Context, db *rel.Database, lg *logicalSelect) error {
	for ; lg != nil; lg = lg.union {
		for _, tl := range lg.tables {
			for _, f := range tl.filters {
				if err := rt.materializeSubqueries(ctx, db, f); err != nil {
					return err
				}
			}
		}
		for _, c := range lg.residual {
			if err := rt.materializeSubqueries(ctx, db, c); err != nil {
				return err
			}
		}
		if err := rt.materializeSubqueries(ctx, db, lg.s.Having); err != nil {
			return err
		}
	}
	return nil
}

// materializeSubqueries executes uncorrelated IN (SELECT ...) subqueries
// in an expression tree and stores their value lists in the run, keyed by
// node. Correlated subqueries (referencing outer bindings) are not
// supported and surface as unknown-column errors from the inner select.
func (rt *run) materializeSubqueries(ctx context.Context, db *rel.Database, e Expr) error {
	switch x := e.(type) {
	case nil:
		return nil
	case *InExpr:
		if err := rt.materializeSubqueries(ctx, db, x.Expr); err != nil {
			return err
		}
		for _, le := range x.List {
			if err := rt.materializeSubqueries(ctx, db, le); err != nil {
				return err
			}
		}
		if x.Sub == nil {
			return nil
		}
		if _, done := rt.subs[x]; done {
			return nil
		}
		cols, it, err := openSelect(ctx, db, x.Sub, buildLogical(db, x.Sub), rt)
		if err != nil {
			return fmt.Errorf("sqlx: IN subquery: %w", err)
		}
		if len(cols) != 1 {
			return fmt.Errorf("sqlx: IN subquery must return one column, got %d", len(cols))
		}
		vals := make([]rel.Value, 0)
		for {
			items, err := it.next(ctx, vecBatch)
			if err == io.EOF {
				break
			}
			if err != nil {
				return fmt.Errorf("sqlx: IN subquery: %w", err)
			}
			for _, i := range items {
				vals = append(vals, i.row[0])
			}
		}
		rt.subs[x] = newInSet(vals)
		return nil
	case *BinaryExpr:
		if err := rt.materializeSubqueries(ctx, db, x.Left); err != nil {
			return err
		}
		return rt.materializeSubqueries(ctx, db, x.Right)
	case *UnaryExpr:
		return rt.materializeSubqueries(ctx, db, x.Expr)
	case *IsNullExpr:
		return rt.materializeSubqueries(ctx, db, x.Expr)
	case *BetweenExpr:
		if err := rt.materializeSubqueries(ctx, db, x.Expr); err != nil {
			return err
		}
		if err := rt.materializeSubqueries(ctx, db, x.Lo); err != nil {
			return err
		}
		return rt.materializeSubqueries(ctx, db, x.Hi)
	case *FuncExpr:
		for _, a := range x.Args {
			if err := rt.materializeSubqueries(ctx, db, a); err != nil {
				return err
			}
		}
	}
	return nil
}

// rightFilterOK evaluates the pushed-down filters against one right
// tuple in isolation.
func rightFilterOK(filters []Expr, bname string, schema *rel.Schema, t rel.Tuple, rt *run) (bool, error) {
	if len(filters) == 0 {
		return true, nil
	}
	e := &env{rt: rt, bindings: []binding{{name: bname, schema: schema, tuple: t}}}
	for _, f := range filters {
		v, err := eval(f, e)
		if err != nil {
			return false, err
		}
		if b, ok := v.AsBool(); !ok || !b {
			return false, nil
		}
	}
	return true, nil
}

// rowOrderKey resolves an ORDER BY key against output rows.
func rowOrderKey(e Expr, items []SelectItem, columns []string, row rel.Tuple) (rel.Value, error) {
	if lit, ok := e.(*Literal); ok && lit.Value.Kind() == rel.KindInt {
		pos, _ := lit.Value.AsInt()
		if pos >= 1 && int(pos) <= len(row) {
			return row[pos-1], nil
		}
	}
	if cr, ok := e.(*ColumnRef); ok && cr.Table == "" {
		for i := range columns {
			if strings.EqualFold(columns[i], cr.Column) {
				return row[i], nil
			}
		}
	}
	// Match structurally equal expressions against projection items.
	for i, it := range items {
		if exprString(it.Expr) == exprString(e) {
			return row[i], nil
		}
	}
	return rel.Null(), fmt.Errorf("sqlx: ORDER BY expression must appear in grouped SELECT list")
}
