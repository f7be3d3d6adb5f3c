package sqlx

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/rel"
)

// Parse parses a single SQL statement.
func Parse(src string) (Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	// Allow a trailing semicolon.
	if p.peek().kind == tokSymbol && p.peek().text == ";" {
		p.next()
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("sqlx: unexpected trailing input %q at offset %d", p.peek().text, p.peek().pos)
	}
	return stmt, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

// acceptKeyword consumes the keyword if present.
func (p *parser) acceptKeyword(kw string) bool {
	if p.peek().kind == tokKeyword && p.peek().text == kw {
		p.next()
		return true
	}
	return false
}

// acceptSymbol consumes the symbol if present.
func (p *parser) acceptSymbol(sym string) bool {
	if p.peek().kind == tokSymbol && p.peek().text == sym {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("sqlx: expected %s, found %q at offset %d", kw, p.peek().text, p.peek().pos)
	}
	return nil
}

func (p *parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return fmt.Errorf("sqlx: expected %q, found %q at offset %d", sym, p.peek().text, p.peek().pos)
	}
	return nil
}

// expectIdent consumes an identifier (or a non-reserved keyword used as a
// name) and returns its text.
func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	if t.kind == tokIdent {
		p.next()
		return t.text, nil
	}
	// Permit keywords like KEY, TEXT as identifiers where unambiguous.
	if t.kind == tokKeyword {
		switch t.text {
		case "KEY", "TEXT", "INT", "COUNT", "MIN", "MAX", "SUM", "AVG", "ALL":
			p.next()
			return strings.ToLower(t.text), nil
		}
	}
	return "", fmt.Errorf("sqlx: expected identifier, found %q at offset %d", t.text, t.pos)
}

func (p *parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, fmt.Errorf("sqlx: expected statement keyword, found %q", t.text)
	}
	switch t.text {
	case "SELECT":
		return p.parseSelect()
	case "INSERT":
		return p.parseInsert()
	case "CREATE":
		return p.parseCreateTable()
	case "DROP":
		return p.parseDropTable()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	}
	return nil, fmt.Errorf("sqlx: unsupported statement %q", t.text)
}

// parseSelect parses a full SELECT including UNION chains; ORDER BY,
// LIMIT and OFFSET bind to the whole chain.
func (p *parser) parseSelect() (*SelectStmt, error) {
	head, err := p.parseSelectCore()
	if err != nil {
		return nil, err
	}
	cur := head
	for p.acceptKeyword("UNION") {
		all := p.acceptKeyword("ALL")
		next, err := p.parseSelectCore()
		if err != nil {
			return nil, err
		}
		cur.Union = next
		cur.UnionAll = all
		cur = next
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			head.OrderBy = append(head.OrderBy, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		n, err := p.parseIntLiteral()
		if err != nil {
			return nil, err
		}
		head.Limit = n
	}
	if p.acceptKeyword("OFFSET") {
		n, err := p.parseIntLiteral()
		if err != nil {
			return nil, err
		}
		head.Offset = n
	}
	return head, nil
}

// parseSelectCore parses one SELECT without ORDER BY/LIMIT/OFFSET.
func (p *parser) parseSelectCore() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{Limit: -1}
	if p.acceptKeyword("DISTINCT") {
		s.Distinct = true
	} else {
		p.acceptKeyword("ALL")
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if p.acceptKeyword("FROM") {
		tr, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		s.From = tr
		for {
			j, ok, err := p.parseJoin()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			s.Joins = append(s.Joins, j)
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Having = e
	}
	return s, nil
}

func (p *parser) parseIntLiteral() (int, error) {
	t := p.peek()
	if t.kind != tokNumber {
		return 0, fmt.Errorf("sqlx: expected number, found %q", t.text)
	}
	p.next()
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, fmt.Errorf("sqlx: bad integer %q", t.text)
	}
	return n, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	// "*" or "ident.*"
	if p.acceptSymbol("*") {
		return SelectItem{Star: true}, nil
	}
	if p.peek().kind == tokIdent && p.i+2 < len(p.toks) &&
		p.toks[p.i+1].kind == tokSymbol && p.toks[p.i+1].text == "." &&
		p.toks[p.i+2].kind == tokSymbol && p.toks[p.i+2].text == "*" {
		tbl := p.next().text
		p.next() // .
		p.next() // *
		return SelectItem{Star: true, StarTable: tbl}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		a, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if p.peek().kind == tokIdent {
		item.Alias = p.next().text
	}
	return item, nil
}

func (p *parser) parseTableRef() (*TableRef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	tr := &TableRef{Name: name}
	if p.acceptKeyword("AS") {
		a, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		tr.Alias = a
	} else if p.peek().kind == tokIdent {
		tr.Alias = p.next().text
	}
	return tr, nil
}

// parseJoin parses one JOIN clause if present.
func (p *parser) parseJoin() (Join, bool, error) {
	kind := JoinInner
	switch {
	case p.acceptKeyword("JOIN"):
	case p.acceptKeyword("INNER"):
		if err := p.expectKeyword("JOIN"); err != nil {
			return Join{}, false, err
		}
	case p.acceptKeyword("LEFT"):
		p.acceptKeyword("OUTER")
		if err := p.expectKeyword("JOIN"); err != nil {
			return Join{}, false, err
		}
		kind = JoinLeft
	case p.acceptKeyword("CROSS"):
		if err := p.expectKeyword("JOIN"); err != nil {
			return Join{}, false, err
		}
		kind = JoinCross
	case p.acceptSymbol(","):
		kind = JoinCross
	default:
		return Join{}, false, nil
	}
	tr, err := p.parseTableRef()
	if err != nil {
		return Join{}, false, err
	}
	j := Join{Kind: kind, Table: tr}
	if kind != JoinCross {
		if err := p.expectKeyword("ON"); err != nil {
			return Join{}, false, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return Join{}, false, err
		}
		j.On = on
	}
	return j, true, nil
}

func (p *parser) parseInsert() (*InsertStmt, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ins := &InsertStmt{Table: name}
	if p.acceptSymbol("(") {
		for {
			c, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, c)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.acceptSymbol(",") {
			break
		}
	}
	return ins, nil
}

func (p *parser) parseCreateTable() (*CreateTableStmt, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	ct := &CreateTableStmt{}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		ct.IfNotExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ct.Table = name
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	for {
		cd, err := p.parseColumnDef(ct.Table)
		if err != nil {
			return nil, err
		}
		ct.Columns = append(ct.Columns, cd)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return ct, nil
}

func (p *parser) parseColumnDef(table string) (ColumnDef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return ColumnDef{}, err
	}
	cd := ColumnDef{Name: name, Kind: rel.KindString}
	t := p.peek()
	if t.kind == tokKeyword {
		switch t.text {
		case "INTEGER", "INT":
			cd.Kind = rel.KindInt
			p.next()
		case "REAL", "FLOAT":
			cd.Kind = rel.KindFloat
			p.next()
		case "TEXT":
			cd.Kind = rel.KindString
			p.next()
		case "VARCHAR":
			cd.Kind = rel.KindString
			p.next()
			if p.acceptSymbol("(") {
				if _, err := p.parseIntLiteral(); err != nil {
					return ColumnDef{}, err
				}
				if err := p.expectSymbol(")"); err != nil {
					return ColumnDef{}, err
				}
			}
		case "BOOLEAN":
			cd.Kind = rel.KindBool
			p.next()
		}
	}
	for {
		switch {
		case p.acceptKeyword("PRIMARY"):
			if err := p.expectKeyword("KEY"); err != nil {
				return ColumnDef{}, err
			}
			cd.PrimaryKey = true
		case p.acceptKeyword("UNIQUE"):
			cd.Unique = true
		case p.acceptKeyword("REFERENCES"):
			toTable, err := p.expectIdent()
			if err != nil {
				return ColumnDef{}, err
			}
			toCol := ""
			if p.acceptSymbol("(") {
				toCol, err = p.expectIdent()
				if err != nil {
					return ColumnDef{}, err
				}
				if err := p.expectSymbol(")"); err != nil {
					return ColumnDef{}, err
				}
			}
			cd.References = &rel.ForeignKey{
				FromRelation: table, FromColumn: name,
				ToRelation: toTable, ToColumn: toCol,
			}
		case p.acceptKeyword("NOT"):
			if err := p.expectKeyword("NULL"); err != nil {
				return ColumnDef{}, err
			}
		default:
			return cd, nil
		}
	}
}

func (p *parser) parseDropTable() (*DropTableStmt, error) {
	if err := p.expectKeyword("DROP"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	d := &DropTableStmt{}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		d.IfExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	d.Table = name
	return d, nil
}

func (p *parser) parseUpdate() (*UpdateStmt, error) {
	if err := p.expectKeyword("UPDATE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	u := &UpdateStmt{Table: name}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		u.Set = append(u.Set, Assignment{Column: col, Value: e})
		if !p.acceptSymbol(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		u.Where = e
	}
	return u, nil
}

func (p *parser) parseDelete() (*DeleteStmt, error) {
	if err := p.expectKeyword("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	d := &DeleteStmt{Table: name}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Where = e
	}
	return d, nil
}

// Expression grammar (precedence climbing):
//   expr    := orExpr
//   orExpr  := andExpr (OR andExpr)*
//   andExpr := notExpr (AND notExpr)*
//   notExpr := NOT notExpr | predicate
//   predicate := addExpr [ cmpOp addExpr | IS [NOT] NULL | [NOT] IN (...) | [NOT] LIKE addExpr | [NOT] BETWEEN addExpr AND addExpr ]
//   addExpr := mulExpr (("+"|"-"|"||") mulExpr)*
//   mulExpr := unary (("*"|"/"|"%") unary)*
//   unary   := "-" unary | primary
//   primary := literal | funcCall | columnRef | "(" expr ")"

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", Expr: e}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (Expr, error) {
	left, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	// comparison operators
	t := p.peek()
	if t.kind == tokSymbol {
		switch t.text {
		case "=", "<", "<=", ">", ">=", "<>", "!=":
			p.next()
			op := t.text
			if op == "!=" {
				op = "<>"
			}
			right, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, Left: left, Right: right}, nil
		}
	}
	negate := false
	if p.peek().kind == tokKeyword && p.peek().text == "NOT" &&
		p.i+1 < len(p.toks) && p.toks[p.i+1].kind == tokKeyword {
		switch p.toks[p.i+1].text {
		case "IN", "LIKE", "BETWEEN":
			p.next()
			negate = true
		}
	}
	switch {
	case p.acceptKeyword("IS"):
		neg := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{Expr: left, Negate: neg}, nil
	case p.acceptKeyword("IN"):
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		if p.peek().kind == tokKeyword && p.peek().text == "SELECT" {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return &InExpr{Expr: left, Sub: sub, Negate: negate}, nil
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &InExpr{Expr: left, List: list, Negate: negate}, nil
	case p.acceptKeyword("LIKE"):
		right, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		e := Expr(&BinaryExpr{Op: "LIKE", Left: left, Right: right})
		if negate {
			e = &UnaryExpr{Op: "NOT", Expr: e}
		}
		return e, nil
	case p.acceptKeyword("BETWEEN"):
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{Expr: left, Lo: lo, Hi: hi, Negate: negate}, nil
	}
	return left, nil
}

func (p *parser) parseAdd() (Expr, error) {
	left, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "+" || t.text == "-" || t.text == "||") {
			p.next()
			right, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: t.text, Left: left, Right: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseMul() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "*" || t.text == "/" || t.text == "%") {
			p.next()
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: t.text, Left: left, Right: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptSymbol("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", Expr: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, fmt.Errorf("sqlx: bad number %q", t.text)
			}
			return &Literal{Value: rel.Float(f)}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sqlx: bad number %q", t.text)
		}
		return &Literal{Value: rel.Int(n)}, nil
	case tokString:
		p.next()
		return &Literal{Value: rel.Str(t.text)}, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.next()
			return &Literal{Value: rel.Null()}, nil
		case "TRUE":
			p.next()
			return &Literal{Value: rel.Bool(true)}, nil
		case "FALSE":
			p.next()
			return &Literal{Value: rel.Bool(false)}, nil
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			return p.parseFuncCall()
		}
		return nil, fmt.Errorf("sqlx: unexpected keyword %q in expression at offset %d", t.text, t.pos)
	case tokIdent:
		// function call?
		if _, ok := scalarArity[strings.ToUpper(t.text)]; ok && p.i+1 < len(p.toks) &&
			p.toks[p.i+1].kind == tokSymbol && p.toks[p.i+1].text == "(" {
			return p.parseFuncCall()
		}
		p.next()
		if p.acceptSymbol(".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: t.text, Column: col}, nil
		}
		return &ColumnRef{Column: t.text}, nil
	case tokSymbol:
		if t.text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("sqlx: unexpected token %q at offset %d", t.text, t.pos)
}

func (p *parser) parseFuncCall() (Expr, error) {
	t := p.next()
	name := strings.ToUpper(t.text)
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	f := &FuncExpr{Name: name}
	if p.acceptSymbol("*") {
		f.Star = true
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return f, nil
	}
	if p.acceptKeyword("DISTINCT") {
		f.Distinct = true
	}
	if !p.acceptSymbol(")") {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			f.Args = append(f.Args, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	return f, nil
}
