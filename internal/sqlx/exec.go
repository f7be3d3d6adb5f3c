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
// the full result. SELECT statements run through the streaming operator
// pipeline (see plan.go/vec.go) and are collected here; callers that
// want pull semantics use Prepare and Plan.Open instead.
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
	cols, it, err := openSelect(ctx, db, s, buildLogical(db, s), newRun())
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: cols}
	for {
		items, err := it.next(ctx, vecBatch)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		for _, i := range items {
			res.Rows = append(res.Rows, i.row)
		}
	}
	return res, nil
}

// binding associates a table binding name with a schema and current tuple.
type binding struct {
	name   string
	schema *rel.Schema
	tuple  rel.Tuple
}

type env struct {
	bindings []binding
	// rt is the per-execution run state (subquery results, scan probe);
	// nil only in contexts that cannot contain IN subqueries.
	rt *run
}

func (e *env) lookup(table, column string) (rel.Value, error) {
	if table != "" {
		for _, b := range e.bindings {
			if strings.EqualFold(b.name, table) {
				i := b.schema.Index(column)
				if i < 0 {
					return rel.Null(), fmt.Errorf("sqlx: no column %q in %q", column, table)
				}
				return b.tuple[i], nil
			}
		}
		return rel.Null(), fmt.Errorf("sqlx: unknown table binding %q", table)
	}
	found := false
	var v rel.Value
	for _, b := range e.bindings {
		if i := b.schema.Index(column); i >= 0 {
			if found {
				return rel.Null(), fmt.Errorf("sqlx: ambiguous column %q", column)
			}
			v = b.tuple[i]
			found = true
		}
	}
	if !found {
		return rel.Null(), fmt.Errorf("sqlx: unknown column %q", column)
	}
	return v, nil
}

// eval evaluates a non-aggregate expression in an environment.
func eval(e Expr, env *env) (rel.Value, error) {
	switch x := e.(type) {
	case groupedProxy:
		return evalGrouped(x.inner, x.g)
	case *Literal:
		return x.Value, nil
	case *ColumnRef:
		return env.lookup(x.Table, x.Column)
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
		if aggregateFuncs[x.Name] {
			return rel.Null(), fmt.Errorf("sqlx: aggregate %s not allowed here", x.Name)
		}
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
		if len(args) != 1 {
			return rel.Null(), fmt.Errorf("sqlx: LENGTH takes 1 argument")
		}
		if args[0].IsNull() {
			return rel.Null(), nil
		}
		return rel.Int(int64(len(args[0].AsString()))), nil
	case "LOWER":
		if len(args) != 1 {
			return rel.Null(), fmt.Errorf("sqlx: LOWER takes 1 argument")
		}
		if args[0].IsNull() {
			return rel.Null(), nil
		}
		return rel.Str(strings.ToLower(args[0].AsString())), nil
	case "UPPER":
		if len(args) != 1 {
			return rel.Null(), fmt.Errorf("sqlx: UPPER takes 1 argument")
		}
		if args[0].IsNull() {
			return rel.Null(), nil
		}
		return rel.Str(strings.ToUpper(args[0].AsString())), nil
	case "TRIM":
		if len(args) != 1 {
			return rel.Null(), fmt.Errorf("sqlx: TRIM takes 1 argument")
		}
		if args[0].IsNull() {
			return rel.Null(), nil
		}
		return rel.Str(strings.TrimSpace(args[0].AsString())), nil
	case "ABS":
		if len(args) != 1 {
			return rel.Null(), fmt.Errorf("sqlx: ABS takes 1 argument")
		}
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
		if len(args) < 1 || len(args) > 2 {
			return rel.Null(), fmt.Errorf("sqlx: ROUND takes 1 or 2 arguments")
		}
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
		if len(args) < 2 || len(args) > 3 {
			return rel.Null(), fmt.Errorf("sqlx: SUBSTR takes 2 or 3 arguments")
		}
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

// equiJoinCols recognizes "a.x = b.y" ON clauses and returns the column
// ref belonging to the left side and the one on the newly joined binding.
func equiJoinCols(on Expr, rightBinding string) (left *ColumnRef, right *ColumnRef, ok bool) {
	be, isBin := on.(*BinaryExpr)
	if !isBin || be.Op != "=" {
		return nil, nil, false
	}
	l, lok := be.Left.(*ColumnRef)
	r, rok := be.Right.(*ColumnRef)
	if !lok || !rok {
		return nil, nil, false
	}
	if strings.EqualFold(r.Table, rightBinding) {
		return l, r, true
	}
	if strings.EqualFold(l.Table, rightBinding) {
		return r, l, true
	}
	return nil, nil, false
}

// expandItems resolves stars into column references and computes output
// column names.
func expandItems(db *rel.Database, s *SelectStmt) ([]SelectItem, []string, error) {
	var items []SelectItem
	var names []string
	// Determine bindings from the FROM clause (schema info only; no data
	// is read, so expansion also serves plan-time validation).
	type bind struct {
		name   string
		schema *rel.Schema
	}
	var binds []bind
	if s.From != nil {
		baseRel := db.Relation(s.From.Name)
		if baseRel == nil {
			return nil, nil, fmt.Errorf("sqlx: no such table %q", s.From.Name)
		}
		binds = append(binds, bind{s.From.Binding(), baseRel.Schema})
		for _, j := range s.Joins {
			r := db.Relation(j.Table.Name)
			if r == nil {
				return nil, nil, fmt.Errorf("sqlx: no such table %q", j.Table.Name)
			}
			binds = append(binds, bind{j.Table.Binding(), r.Schema})
		}
	}
	for _, it := range s.Items {
		if !it.Star {
			items = append(items, it)
			names = append(names, itemName(it))
			continue
		}
		for _, b := range binds {
			if it.StarTable != "" && !strings.EqualFold(it.StarTable, b.name) {
				continue
			}
			for _, c := range b.schema.Columns {
				items = append(items, SelectItem{Expr: &ColumnRef{Table: b.name, Column: c.Name}})
				names = append(names, c.Name)
			}
		}
	}
	return items, names, nil
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

// aggState accumulates one aggregate within one group.
type aggState struct {
	count    int
	sum      float64
	sumInt   int64
	intOnly  bool
	min, max rel.Value
	distinct valueSet
}

func newAggState() *aggState { return &aggState{intOnly: true} }

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
		a.intOnly = false
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
		if a.intOnly {
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

// group carries the representative env and aggregate states of one group.
type group struct {
	repr *env
	aggs map[*FuncExpr]*aggState
	star int // COUNT(*) count
}

// collectAggs gathers aggregate FuncExpr nodes from an expression.
func collectAggs(e Expr, out *[]*FuncExpr) {
	switch x := e.(type) {
	case *FuncExpr:
		if aggregateFuncs[x.Name] {
			*out = append(*out, x)
			return
		}
		for _, a := range x.Args {
			collectAggs(a, out)
		}
	case *BinaryExpr:
		collectAggs(x.Left, out)
		collectAggs(x.Right, out)
	case *UnaryExpr:
		collectAggs(x.Expr, out)
	case *IsNullExpr:
		collectAggs(x.Expr, out)
	case *BetweenExpr:
		collectAggs(x.Expr, out)
		collectAggs(x.Lo, out)
		collectAggs(x.Hi, out)
	case *InExpr:
		collectAggs(x.Expr, out)
		for _, a := range x.List {
			collectAggs(a, out)
		}
	}
}

// evalGrouped evaluates an expression replacing aggregate nodes with their
// accumulated results; bare columns evaluate against the representative.
func evalGrouped(e Expr, g *group) (rel.Value, error) {
	if f, ok := e.(*FuncExpr); ok && aggregateFuncs[f.Name] {
		st, present := g.aggs[f]
		if !present {
			return rel.Null(), fmt.Errorf("sqlx: internal: missing aggregate state for %s", f.Name)
		}
		if f.Star {
			if f.Name != "COUNT" {
				return rel.Null(), fmt.Errorf("sqlx: %s(*) not supported", f.Name)
			}
			return rel.Int(int64(g.star)), nil
		}
		return st.result(f.Name), nil
	}
	switch x := e.(type) {
	case *BinaryExpr:
		return evalBinary(&BinaryExpr{Op: x.Op, Left: groupedProxy{x.Left, g}, Right: groupedProxy{x.Right, g}, like: x.like}, g.repr)
	case *UnaryExpr:
		return eval(&UnaryExpr{Op: x.Op, Expr: groupedProxy{x.Expr, g}}, g.repr)
	case *FuncExpr:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = groupedProxy{a, g}
		}
		return evalScalarFunc(&FuncExpr{Name: x.Name, Args: args}, g.repr)
	}
	return eval(e, g.repr)
}

// groupedProxy lets evalBinary recurse through grouped evaluation: it is an
// Expr whose evaluation routes back to evalGrouped.
type groupedProxy struct {
	inner Expr
	g     *group
}

func (groupedProxy) expr() {}

// evalOrderKey evaluates an ORDER BY key: aliases and ordinal positions
// refer to output columns, everything else evaluates in the row env.
func evalOrderKey(e Expr, items []SelectItem, row rel.Tuple, en *env) (rel.Value, error) {
	if lit, ok := e.(*Literal); ok && lit.Value.Kind() == rel.KindInt {
		pos, _ := lit.Value.AsInt()
		if pos >= 1 && int(pos) <= len(row) {
			return row[pos-1], nil
		}
	}
	if cr, ok := e.(*ColumnRef); ok && cr.Table == "" {
		for i, it := range items {
			if strings.EqualFold(it.Alias, cr.Column) {
				return row[i], nil
			}
		}
	}
	return eval(e, en)
}

// exprString renders an expression canonically for structural comparison.
func exprString(e Expr) string {
	switch x := e.(type) {
	case nil:
		return ""
	case *Literal:
		return x.Value.String()
	case *ColumnRef:
		return strings.ToLower(x.Table) + "." + strings.ToLower(x.Column)
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
	empty := &env{}
	for _, row := range s.Rows {
		if len(row) != len(cols) {
			return nil, fmt.Errorf("sqlx: INSERT arity mismatch: %d values for %d columns", len(row), len(cols))
		}
		t := make(rel.Tuple, r.Schema.Len())
		for i := range t {
			t[i] = rel.Null()
		}
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

func execUpdate(ctx context.Context, db *rel.Database, s *UpdateStmt) (*Result, error) {
	r := db.Relation(s.Table)
	if r == nil {
		return nil, fmt.Errorf("sqlx: no such table %q", s.Table)
	}
	rt := newRun()
	if err := rt.materializeSubqueries(ctx, db, s.Where); err != nil {
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
		e := &env{rt: rt, bindings: []binding{{name: s.Table, schema: r.Schema, tuple: t}}}
		if s.Where != nil {
			v, err := eval(s.Where, e)
			if err != nil {
				return nil, err
			}
			if b, ok := v.AsBool(); !ok || !b {
				continue
			}
		}
		for i, a := range s.Set {
			v, err := eval(a.Value, e)
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
	r := db.Relation(s.Table)
	if r == nil {
		return nil, fmt.Errorf("sqlx: no such table %q", s.Table)
	}
	rt := newRun()
	if err := rt.materializeSubqueries(ctx, db, s.Where); err != nil {
		return nil, err
	}
	var kept []rel.Tuple
	n := 0
	for _, t := range r.Tuples {
		e := &env{rt: rt, bindings: []binding{{name: s.Table, schema: r.Schema, tuple: t}}}
		del := s.Where == nil
		if s.Where != nil {
			v, err := eval(s.Where, e)
			if err != nil {
				return nil, err
			}
			if b, ok := v.AsBool(); ok && b {
				del = true
			}
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
