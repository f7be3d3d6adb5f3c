package sqlx

import "repro/internal/rel"

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// SelectStmt is a SELECT query, possibly the head of a UNION chain.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     *TableRef
	Joins    []Join
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 if absent
	Offset   int // 0 if absent

	// Union chains another SELECT whose rows are appended; UnionAll
	// keeps duplicates. ORDER BY/LIMIT/OFFSET of the head apply to the
	// combined result.
	Union    *SelectStmt
	UnionAll bool
}

func (*SelectStmt) stmt() {}

// SelectItem is one projection item: an expression with an optional alias,
// or a star ("*" / "t.*").
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool
	// StarTable qualifies a star, e.g. "t.*"; empty for bare "*".
	StarTable string
}

// TableRef names a base relation with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// Binding returns the name the table is addressable by.
func (t *TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// JoinKind distinguishes inner from left outer joins.
type JoinKind int

const (
	// JoinInner is a standard inner join.
	JoinInner JoinKind = iota
	// JoinLeft is a left outer join.
	JoinLeft
	// JoinCross is a cross join (no ON clause).
	JoinCross
)

// Join is one JOIN clause.
type Join struct {
	Kind  JoinKind
	Table *TableRef
	On    Expr
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// InsertStmt is INSERT INTO t [(cols)] VALUES (...), (...).
type InsertStmt struct {
	Table   string
	Columns []string
	Rows    [][]Expr
}

func (*InsertStmt) stmt() {}

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name       string
	Kind       rel.Kind
	PrimaryKey bool
	Unique     bool
	References *rel.ForeignKey // nil if no REFERENCES clause
}

// CreateTableStmt is CREATE TABLE.
type CreateTableStmt struct {
	Table       string
	IfNotExists bool
	Columns     []ColumnDef
}

func (*CreateTableStmt) stmt() {}

// DropTableStmt is DROP TABLE.
type DropTableStmt struct {
	Table    string
	IfExists bool
}

func (*DropTableStmt) stmt() {}

// UpdateStmt is UPDATE t SET col=expr,... [WHERE ...].
type UpdateStmt struct {
	Table string
	Set   []Assignment
	Where Expr
}

func (*UpdateStmt) stmt() {}

// Assignment is one SET clause element.
type Assignment struct {
	Column string
	Value  Expr
}

// DeleteStmt is DELETE FROM t [WHERE ...].
type DeleteStmt struct {
	Table string
	Where Expr
}

func (*DeleteStmt) stmt() {}

// Expr is a SQL expression node.
type Expr interface{ expr() }

// Literal is a constant value.
type Literal struct{ Value rel.Value }

func (*Literal) expr() {}

// ColumnRef names a column, optionally qualified by table binding.
type ColumnRef struct {
	Table  string // may be empty
	Column string
}

func (*ColumnRef) expr() {}

// BinaryExpr applies an infix operator.
type BinaryExpr struct {
	Op    string // "=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", "%", "AND", "OR", "LIKE", "||"
	Left  Expr
	Right Expr
}

func (*BinaryExpr) expr() {}

// UnaryExpr applies NOT or unary minus.
type UnaryExpr struct {
	Op   string // "NOT", "-"
	Expr Expr
}

func (*UnaryExpr) expr() {}

// IsNullExpr is "expr IS [NOT] NULL".
type IsNullExpr struct {
	Expr   Expr
	Negate bool
}

func (*IsNullExpr) expr() {}

// InExpr is "expr [NOT] IN (v1, v2, ...)" or "expr [NOT] IN (SELECT ...)".
// Subqueries are uncorrelated: each run materializes them first.
type InExpr struct {
	Expr   Expr
	List   []Expr
	Sub    *SelectStmt
	Negate bool
	lg     *logicalSelect // Sub's plan, prepared when the expression is bound
}

func (*InExpr) expr() {}

// BetweenExpr is "expr [NOT] BETWEEN lo AND hi".
type BetweenExpr struct {
	Expr   Expr
	Lo, Hi Expr
	Negate bool
}

func (*BetweenExpr) expr() {}

// FuncExpr is a function or aggregate call.
type FuncExpr struct {
	Name     string // uppercased: COUNT, SUM, AVG, MIN, MAX, LENGTH, LOWER, UPPER, SUBSTR, ABS
	Star     bool   // COUNT(*)
	Distinct bool   // COUNT(DISTINCT x)
	Args     []Expr
}

func (*FuncExpr) expr() {}

// aggregateFuncs are the functions computed per group.
var aggregateFuncs = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}
