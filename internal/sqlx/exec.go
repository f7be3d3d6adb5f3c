package sqlx

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/rel"
)

// Result is the output of a query: column names plus rows.
type Result struct {
	Columns []string
	Rows    []rel.Tuple
	// Affected is the row count for INSERT/UPDATE/DELETE.
	Affected int
}

// Exec parses and executes one SQL statement against db, materializing
// the full result. A SELECT resolves its names as Prepare does, then runs
// through the streaming operator pipeline (see plan.go/vec.go) and is
// collected here; callers that want pull semantics use Prepare and
// Plan.Open instead. UPDATE, DELETE and INSERT resolve theirs before
// touching a row.
func Exec(db *rel.Database, sql string) (*Result, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return ExecStmt(db, stmt)
}

// ExecStmt executes a parsed statement against db.
func ExecStmt(db *rel.Database, stmt Statement) (*Result, error) {
	return execStmt(context.Background(), db, stmt)
}

func execStmt(ctx context.Context, db *rel.Database, stmt Statement) (*Result, error) {
	switch s := stmt.(type) {
	case *SelectStmt:
		return collectSelect(ctx, db, s)
	case *InsertStmt:
		return execInsert(db, s)
	case *CreateTableStmt:
		return execCreateTable(db, s)
	case *DropTableStmt:
		return execDropTable(db, s)
	case *UpdateStmt:
		return execUpdate(ctx, db, s)
	case *DeleteStmt:
		return execDelete(ctx, db, s)
	}
	return nil, fmt.Errorf("sqlx: unsupported statement %T", stmt)
}

// collectSelect drains the operator pipeline into a materialized Result —
// the collect-all wrapper pinning Exec's historical semantics on top of
// the streaming executor.
func collectSelect(ctx context.Context, db *rel.Database, s *SelectStmt) (*Result, error) {
	lg, err := buildLogical(db, s)
	if err != nil {
		return nil, err
	}
	rt := newRun()
	defer rt.close()
	cols, it, err := openSelect(ctx, db, lg, rt)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: cols}
	var vals kept[rel.Value]
	for {
		items, err := it.next(ctx, vecBatch)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		for _, i := range items {
			res.Rows = append(res.Rows, vals.copy(i.row))
		}
	}
	return res, nil
}

// env is one joined row before projection: the current tuple of every
// FROM table by FROM position, so a resolved column reads
// tuples[tab][col] whatever order the joins ran in.
type env struct {
	tuples []rel.Tuple
	// aggs are a group's aggregate results, where grouped items and
	// HAVING evaluate.
	aggs []rel.Value
	// rt is the per-execution run state (subquery results, scan probe);
	// nil only in contexts that cannot contain IN subqueries.
	rt *run
}

func (e *env) get(c *colRef) rel.Value { return e.tuples[c.tab][c.col] }

// equiJoinCols recognizes "a.x = b.y" ON clauses between the table at
// FROM position right, named qualified, and another, and returns the
// column ref on the other table and the one on right.
func equiJoinCols(on Expr, right int) (left *colRef, r *colRef, ok bool) {
	be, isBin := on.(*BinaryExpr)
	if !isBin || be.Op != "=" {
		return nil, nil, false
	}
	a, aok := be.Left.(*colRef)
	b, bok := be.Right.(*colRef)
	switch {
	case !aok || !bok || a.tab == b.tab:
		return nil, nil, false
	case b.tab == right && b.Table != "":
		return a, b, true
	case a.tab == right && a.Table != "":
		return b, a, true
	}
	return nil, nil, false
}

func itemName(it SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(*ColumnRef); ok {
		return cr.Column
	}
	if f, ok := it.Expr.(*FuncExpr); ok {
		return strings.ToLower(f.Name)
	}
	return "expr"
}

// aggState accumulates one aggregate within one group; the zero value
// is an empty one.
type aggState struct {
	count    int
	sum      float64
	sumInt   int64
	nonInt   bool
	min, max rel.Value
	distinct valueSet
}

func (a *aggState) add(v rel.Value, distinct bool) {
	if v.IsNull() {
		return
	}
	if distinct {
		// Deduplicate under Key() identity via the open-addressing value
		// set — no key string is built per input value.
		if !a.distinct.insert(v) {
			return
		}
	}
	a.count++
	if f, ok := v.AsFloat(); ok {
		a.sum += f
	}
	if v.Kind() == rel.KindInt {
		i, _ := v.AsInt()
		a.sumInt += i
	} else {
		a.nonInt = true
	}
	if a.min.IsNull() || v.Compare(a.min) < 0 {
		a.min = v
	}
	if a.max.IsNull() || v.Compare(a.max) > 0 {
		a.max = v
	}
}

func (a *aggState) result(fn string) rel.Value {
	switch fn {
	case "COUNT":
		return rel.Int(int64(a.count))
	case "SUM":
		if a.count == 0 {
			return rel.Null()
		}
		if !a.nonInt {
			return rel.Int(a.sumInt)
		}
		return rel.Float(a.sum)
	case "AVG":
		if a.count == 0 {
			return rel.Null()
		}
		return rel.Float(a.sum / float64(a.count))
	case "MIN":
		return a.min
	case "MAX":
		return a.max
	}
	return rel.Null()
}

// aggRef is an aggregate call resolved to its slot among its select's
// aggregates (logicalSelect.aggs): env.aggs[i] of a group's env.
type aggRef struct {
	*FuncExpr
	i int
}

func (*aggRef) expr() {}

// exprString renders an expression canonically for structural comparison.
func exprString(e Expr) string {
	switch x := e.(type) {
	case nil:
		return ""
	case *Literal:
		return x.Value.String()
	case *ColumnRef:
		return strings.ToLower(x.Table) + "." + strings.ToLower(x.Column)
	case *colRef:
		return exprString(x.ColumnRef)
	case *aggRef:
		return exprString(x.FuncExpr)
	case *BinaryExpr:
		return "(" + exprString(x.Left) + x.Op + exprString(x.Right) + ")"
	case *UnaryExpr:
		return x.Op + "(" + exprString(x.Expr) + ")"
	case *FuncExpr:
		parts := make([]string, 0, len(x.Args)+1)
		if x.Star {
			parts = append(parts, "*")
		}
		for _, a := range x.Args {
			parts = append(parts, exprString(a))
		}
		d := ""
		if x.Distinct {
			d = "D:"
		}
		return x.Name + "(" + d + strings.Join(parts, ",") + ")"
	case *IsNullExpr:
		return "isnull(" + exprString(x.Expr) + fmt.Sprintf(",%v)", x.Negate)
	case *InExpr:
		parts := make([]string, len(x.List))
		for i, a := range x.List {
			parts[i] = exprString(a)
		}
		return "in(" + exprString(x.Expr) + ";" + strings.Join(parts, ",") + fmt.Sprintf(";%v)", x.Negate)
	case *BetweenExpr:
		return "between(" + exprString(x.Expr) + ";" + exprString(x.Lo) + ";" + exprString(x.Hi) + ")"
	}
	return fmt.Sprintf("%T", e)
}

func execInsert(db *rel.Database, s *InsertStmt) (*Result, error) {
	r := db.Relation(s.Table)
	if r == nil {
		return nil, fmt.Errorf("sqlx: no such table %q", s.Table)
	}
	cols := s.Columns
	if len(cols) == 0 {
		cols = r.Schema.Names()
	}
	idx := make([]int, len(cols))
	for i, c := range cols {
		j := r.Schema.Index(c)
		if j < 0 {
			return nil, fmt.Errorf("sqlx: no column %q in %q", c, s.Table)
		}
		idx[i] = j
	}
	// VALUES may name no column; every row binds before any is added.
	rows := make([][]Expr, len(s.Rows))
	for i, row := range s.Rows {
		if len(row) != len(cols) {
			return nil, fmt.Errorf("sqlx: INSERT arity mismatch: %d values for %d columns", len(row), len(cols))
		}
		var err error
		if rows[i], err = (&resolver{db: db}).exprs(row, false); err != nil {
			return nil, err
		}
	}
	empty := &env{}
	for _, row := range rows {
		t := make(rel.Tuple, r.Schema.Len())
		for i, e := range row {
			v, err := compileScalar(e)(empty)
			if err != nil {
				return nil, err
			}
			t[idx[i]] = v
		}
		r.Append(t)
	}
	return &Result{Affected: len(s.Rows)}, nil
}

func execCreateTable(db *rel.Database, s *CreateTableStmt) (*Result, error) {
	if db.Relation(s.Table) != nil {
		if s.IfNotExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("sqlx: table %q already exists", s.Table)
	}
	cols := make([]rel.Column, len(s.Columns))
	for i, cd := range s.Columns {
		cols[i] = rel.Column{Name: cd.Name, Kind: cd.Kind}
	}
	r := db.Create(s.Table, rel.NewSchema(cols...))
	for _, cd := range s.Columns {
		if cd.PrimaryKey {
			r.PrimaryKey = cd.Name
			r.UniqueCols[strings.ToLower(cd.Name)] = true
		}
		if cd.Unique {
			r.UniqueCols[strings.ToLower(cd.Name)] = true
		}
		if cd.References != nil {
			r.ForeignKeys = append(r.ForeignKeys, *cd.References)
		}
	}
	// Auto-index the declared keys; Append maintains them on INSERT.
	r.EnsureIndexes()
	return &Result{}, nil
}

func execDropTable(db *rel.Database, s *DropTableStmt) (*Result, error) {
	if db.Relation(s.Table) == nil {
		if s.IfExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("sqlx: no such table %q", s.Table)
	}
	db.Drop(s.Table)
	return &Result{}, nil
}

// bindDML resolves a DML statement's table and binds exprs against it
// (nil ones stay nil), then materializes their IN subqueries. The env it
// returns holds the table's current tuple at position 0.
func bindDML(ctx context.Context, db *rel.Database, table string, exprs ...Expr) (*rel.Relation, []Expr, *env, error) {
	r := db.Relation(table)
	if r == nil {
		return nil, nil, nil, fmt.Errorf("sqlx: no such table %q", table)
	}
	rs := &resolver{db: db, scope: []*tableLogical{{ref: &TableRef{Name: table}, schema: r.Schema}}}
	bound, err := rs.exprs(exprs, false)
	if err != nil {
		return nil, nil, nil, err
	}
	rt := newRun()
	if err := rt.materialize(ctx, db, rs.subs); err != nil {
		return nil, nil, nil, err
	}
	return r, bound, &env{rt: rt, tuples: make([]rel.Tuple, 1)}, nil
}

func execUpdate(ctx context.Context, db *rel.Database, s *UpdateStmt) (*Result, error) {
	exprs := []Expr{s.Where}
	for _, a := range s.Set {
		exprs = append(exprs, a.Value)
	}
	r, bound, e, err := bindDML(ctx, db, s.Table, exprs...)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(s.Set))
	for i, a := range s.Set {
		j := r.Schema.Index(a.Column)
		if j < 0 {
			return nil, fmt.Errorf("sqlx: no column %q in %q", a.Column, s.Table)
		}
		idx[i] = j
	}
	where, values := newConds(bound[0]), compileScalars(bound[1:]...)
	n := 0
	for ti, t := range r.Tuples {
		e.tuples[0] = t
		ok, err := allHold(where, e)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		for i, value := range values {
			v, err := value(e)
			if err != nil {
				return nil, err
			}
			r.Tuples[ti][idx[i]] = v
		}
		n++
	}
	if n > 0 {
		r.RebuildIndexes()
	}
	return &Result{Affected: n}, nil
}

func execDelete(ctx context.Context, db *rel.Database, s *DeleteStmt) (*Result, error) {
	r, bound, e, err := bindDML(ctx, db, s.Table, s.Where)
	if err != nil {
		return nil, err
	}
	where := newConds(bound[0])
	var kept []rel.Tuple
	n := 0
	for _, t := range r.Tuples {
		e.tuples[0] = t
		del, err := allHold(where, e)
		if err != nil {
			return nil, err
		}
		if del {
			n++
		} else {
			kept = append(kept, t)
		}
	}
	r.Tuples = kept
	if n > 0 {
		r.RebuildIndexes()
	}
	return &Result{Affected: n}, nil
}
