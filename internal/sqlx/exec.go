package sqlx

import (
	"context"
	"fmt"
	"io"
	"math"
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

// holds reports whether pred is TRUE in e (NULL and FALSE do not hold);
// a nil predicate always holds.
func holds(pred Expr, e *env) (bool, error) {
	if pred == nil {
		return true, nil
	}
	v, err := eval(pred, e)
	if err != nil {
		return false, err
	}
	b, ok := v.AsBool()
	return ok && b, nil
}

// eval evaluates a bound expression (see resolve.go) in an environment.
func eval(e Expr, env *env) (rel.Value, error) {
	switch x := e.(type) {
	case *Literal:
		return x.Value, nil
	case *colRef:
		return env.get(x), nil
	case *aggRef:
		return env.aggs[x.i], nil
	case *UnaryExpr:
		v, err := eval(x.Expr, env)
		if err != nil {
			return rel.Null(), err
		}
		switch x.Op {
		case "NOT":
			if v.IsNull() {
				return rel.Null(), nil
			}
			b, _ := v.AsBool()
			return rel.Bool(!b), nil
		case "-":
			if v.IsNull() {
				return rel.Null(), nil
			}
			if v.Kind() == rel.KindInt {
				i, _ := v.AsInt()
				return rel.Int(-i), nil
			}
			f, ok := v.AsFloat()
			if !ok {
				return rel.Null(), fmt.Errorf("sqlx: cannot negate %v", v)
			}
			return rel.Float(-f), nil
		}
	case *BinaryExpr:
		return evalBinary(x, env)
	case *IsNullExpr:
		v, err := eval(x.Expr, env)
		if err != nil {
			return rel.Null(), err
		}
		return rel.Bool(v.IsNull() != x.Negate), nil
	case *InExpr:
		v, err := eval(x.Expr, env)
		if err != nil {
			return rel.Null(), err
		}
		if v.IsNull() {
			return rel.Null(), nil
		}
		match := false
		if x.Sub != nil {
			// Subquery results are materialized per run (never into the
			// shared AST, which may belong to a cached plan).
			if env.rt == nil {
				return rel.Null(), fmt.Errorf("sqlx: internal: IN subquery not materialized")
			}
			set, ok := env.rt.subs[x]
			if !ok {
				return rel.Null(), fmt.Errorf("sqlx: internal: IN subquery not materialized")
			}
			return rel.Bool(set.contains(v) != x.Negate), nil
		}
		for _, le := range x.List {
			lv, err := eval(le, env)
			if err != nil {
				return rel.Null(), err
			}
			if v.Equal(lv) {
				match = true
				break
			}
		}
		return rel.Bool(match != x.Negate), nil
	case *BetweenExpr:
		v, err := eval(x.Expr, env)
		if err != nil {
			return rel.Null(), err
		}
		lo, err := eval(x.Lo, env)
		if err != nil {
			return rel.Null(), err
		}
		hi, err := eval(x.Hi, env)
		if err != nil {
			return rel.Null(), err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return rel.Null(), nil
		}
		in := v.Compare(lo) >= 0 && v.Compare(hi) <= 0
		return rel.Bool(in != x.Negate), nil
	case *FuncExpr:
		return evalScalarFunc(x, env)
	}
	return rel.Null(), fmt.Errorf("sqlx: cannot evaluate %T", e)
}

func evalBinary(x *BinaryExpr, env *env) (rel.Value, error) {
	l, err := eval(x.Left, env)
	if err != nil {
		return rel.Null(), err
	}
	// Short-circuit AND/OR with three-valued logic.
	switch x.Op {
	case "AND":
		if !l.IsNull() {
			if b, _ := l.AsBool(); !b {
				return rel.Bool(false), nil
			}
		}
		r, err := eval(x.Right, env)
		if err != nil {
			return rel.Null(), err
		}
		if l.IsNull() || r.IsNull() {
			if !r.IsNull() {
				if b, _ := r.AsBool(); !b {
					return rel.Bool(false), nil
				}
			}
			return rel.Null(), nil
		}
		lb, _ := l.AsBool()
		rb, _ := r.AsBool()
		return rel.Bool(lb && rb), nil
	case "OR":
		if !l.IsNull() {
			if b, _ := l.AsBool(); b {
				return rel.Bool(true), nil
			}
		}
		r, err := eval(x.Right, env)
		if err != nil {
			return rel.Null(), err
		}
		if l.IsNull() || r.IsNull() {
			if !r.IsNull() {
				if b, _ := r.AsBool(); b {
					return rel.Bool(true), nil
				}
			}
			return rel.Null(), nil
		}
		lb, _ := l.AsBool()
		rb, _ := r.AsBool()
		return rel.Bool(lb || rb), nil
	}
	r, err := eval(x.Right, env)
	if err != nil {
		return rel.Null(), err
	}
	switch x.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return rel.Null(), nil
		}
		c := l.Compare(r)
		switch x.Op {
		case "=":
			return rel.Bool(l.Equal(r)), nil
		case "<>":
			return rel.Bool(!l.Equal(r)), nil
		case "<":
			return rel.Bool(c < 0), nil
		case "<=":
			return rel.Bool(c <= 0), nil
		case ">":
			return rel.Bool(c > 0), nil
		case ">=":
			return rel.Bool(c >= 0), nil
		}
	case "LIKE":
		if l.IsNull() || r.IsNull() {
			return rel.Null(), nil
		}
		m := x.like
		if m == nil {
			m = compileLike(r.AsString())
		}
		return rel.Bool(m.match(l.AsString())), nil
	case "||":
		if l.IsNull() || r.IsNull() {
			return rel.Null(), nil
		}
		return rel.Str(l.AsString() + r.AsString()), nil
	case "+", "-", "*", "/", "%":
		if l.IsNull() || r.IsNull() {
			return rel.Null(), nil
		}
		return evalArith(x.Op, l, r)
	}
	return rel.Null(), fmt.Errorf("sqlx: unknown operator %q", x.Op)
}

func evalArith(op string, l, r rel.Value) (rel.Value, error) {
	if l.Kind() == rel.KindInt && r.Kind() == rel.KindInt {
		a, _ := l.AsInt()
		b, _ := r.AsInt()
		switch op {
		case "+":
			return rel.Int(a + b), nil
		case "-":
			return rel.Int(a - b), nil
		case "*":
			return rel.Int(a * b), nil
		case "/":
			if b == 0 {
				return rel.Null(), fmt.Errorf("sqlx: division by zero")
			}
			return rel.Int(a / b), nil
		case "%":
			if b == 0 {
				return rel.Null(), fmt.Errorf("sqlx: division by zero")
			}
			return rel.Int(a % b), nil
		}
	}
	a, okA := l.AsFloat()
	b, okB := r.AsFloat()
	if !okA || !okB {
		return rel.Null(), fmt.Errorf("sqlx: non-numeric operands for %q", op)
	}
	switch op {
	case "+":
		return rel.Float(a + b), nil
	case "-":
		return rel.Float(a - b), nil
	case "*":
		return rel.Float(a * b), nil
	case "/":
		if b == 0 {
			return rel.Null(), fmt.Errorf("sqlx: division by zero")
		}
		return rel.Float(a / b), nil
	case "%":
		if b == 0 {
			return rel.Null(), fmt.Errorf("sqlx: division by zero")
		}
		return rel.Float(math.Mod(a, b)), nil
	}
	return rel.Null(), fmt.Errorf("sqlx: unknown arithmetic op %q", op)
}

// scalarArity names the scalar functions, with each one's least and most
// argument counts (-1: no most): the parser knows a call by it, and the
// resolver checks the call's arguments against it.
var scalarArity = map[string][2]int{
	"LENGTH": {1, 1}, "LOWER": {1, 1}, "UPPER": {1, 1}, "TRIM": {1, 1}, "ABS": {1, 1},
	"ROUND": {1, 2}, "SUBSTR": {2, 3}, "COALESCE": {0, -1},
}

func evalScalarFunc(x *FuncExpr, env *env) (rel.Value, error) {
	args := make([]rel.Value, len(x.Args))
	for i, a := range x.Args {
		v, err := eval(a, env)
		if err != nil {
			return rel.Null(), err
		}
		args[i] = v
	}
	switch x.Name {
	case "LENGTH":
		if args[0].IsNull() {
			return rel.Null(), nil
		}
		return rel.Int(int64(len(args[0].AsString()))), nil
	case "LOWER":
		if args[0].IsNull() {
			return rel.Null(), nil
		}
		return rel.Str(strings.ToLower(args[0].AsString())), nil
	case "UPPER":
		if args[0].IsNull() {
			return rel.Null(), nil
		}
		return rel.Str(strings.ToUpper(args[0].AsString())), nil
	case "TRIM":
		if args[0].IsNull() {
			return rel.Null(), nil
		}
		return rel.Str(strings.TrimSpace(args[0].AsString())), nil
	case "ABS":
		if args[0].IsNull() {
			return rel.Null(), nil
		}
		if args[0].Kind() == rel.KindInt {
			i, _ := args[0].AsInt()
			if i < 0 {
				i = -i
			}
			return rel.Int(i), nil
		}
		f, ok := args[0].AsFloat()
		if !ok {
			return rel.Null(), fmt.Errorf("sqlx: ABS of non-numeric")
		}
		return rel.Float(math.Abs(f)), nil
	case "ROUND":
		if args[0].IsNull() {
			return rel.Null(), nil
		}
		f, ok := args[0].AsFloat()
		if !ok {
			return rel.Null(), fmt.Errorf("sqlx: ROUND of non-numeric")
		}
		digits := int64(0)
		if len(args) == 2 {
			digits, _ = args[1].AsInt()
		}
		scale := math.Pow(10, float64(digits))
		return rel.Float(math.Round(f*scale) / scale), nil
	case "SUBSTR":
		if args[0].IsNull() {
			return rel.Null(), nil
		}
		s := args[0].AsString()
		start, _ := args[1].AsInt()
		if start < 1 {
			start = 1
		}
		if int(start) > len(s) {
			return rel.Str(""), nil
		}
		rest := s[start-1:]
		if len(args) == 3 {
			n, _ := args[2].AsInt()
			if n < 0 {
				n = 0
			}
			if int(n) < len(rest) {
				rest = rest[:n]
			}
		}
		return rel.Str(rest), nil
	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return rel.Null(), nil
	}
	return rel.Null(), fmt.Errorf("sqlx: unknown function %s", x.Name)
}

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
			v, err := eval(e, empty)
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
	n := 0
	for ti, t := range r.Tuples {
		e.tuples[0] = t
		ok, err := holds(bound[0], e)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		for i, value := range bound[1:] {
			v, err := eval(value, e)
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
	r, where, e, err := bindDML(ctx, db, s.Table, s.Where)
	if err != nil {
		return nil, err
	}
	var kept []rel.Tuple
	n := 0
	for _, t := range r.Tuples {
		e.tuples[0] = t
		del, err := holds(where[0], e)
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
