// Package sqlx implements a SQL subset over the rel engine: the paper's
// third access mode, "querying allows full SQL queries on the schemata as
// imported" (§4.6). Supported: SELECT [DISTINCT] with expressions and
// aggregates, multi-way JOIN ... ON, WHERE, GROUP BY, HAVING, ORDER BY,
// LIMIT/OFFSET, CREATE TABLE, INSERT, UPDATE, DELETE.
//
// A statement is parsed, its names resolved (resolve.go) and each of its
// expressions compiled once into Go closures over the row (compile.go:
// interpretation by closure compilation, Kersten et al., VLDB 2018), then
// run by one batch-at-a-time operator pipeline (vec*.go). A closure
// captures only what is fixed at compile time and reads per-run state
// (IN subquery sets) through the row, so cached plans share it.
package sqlx

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol  // punctuation and operators
	tokKeyword // recognized SQL keyword (uppercased)
)

type token struct {
	kind tokenKind
	text string // keywords are uppercased; idents keep original case
	pos  int
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true, "OR": true,
	"NOT": true, "AS": true, "JOIN": true, "INNER": true, "LEFT": true,
	"OUTER": true, "ON": true, "GROUP": true, "BY": true, "HAVING": true,
	"ORDER": true, "ASC": true, "DESC": true, "LIMIT": true, "OFFSET": true,
	"DISTINCT": true, "INSERT": true, "INTO": true, "VALUES": true,
	"CREATE": true, "TABLE": true, "UPDATE": true, "SET": true,
	"DELETE": true, "NULL": true, "IS": true, "IN": true, "LIKE": true,
	"BETWEEN": true, "TRUE": true, "FALSE": true, "COUNT": true,
	"SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"INTEGER": true, "INT": true, "REAL": true, "FLOAT": true,
	"TEXT": true, "VARCHAR": true, "BOOLEAN": true, "PRIMARY": true,
	"KEY": true, "UNIQUE": true, "REFERENCES": true, "FOREIGN": true,
	"DROP": true, "EXISTS": true, "IF": true, "CROSS": true, "UNION": true,
	"ALL": true,
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenizes a SQL string.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpaceAndComments()
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
			return l.toks, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case isIdentStart(rune(c)):
			l.lexIdent(start)
		case unicode.IsDigit(rune(c)) || (c == '.' && l.pos+1 < len(l.src) && unicode.IsDigit(rune(l.src[l.pos+1]))):
			l.lexNumber(start)
		case c == '\'':
			if err := l.lexString(start); err != nil {
				return nil, err
			}
		case c == '"':
			if err := l.lexQuotedIdent(start); err != nil {
				return nil, err
			}
		default:
			if err := l.lexSymbol(start); err != nil {
				return nil, err
			}
		}
	}
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			return
		}
	}
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

func (l *lexer) lexIdent(start int) {
	for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
		l.pos++
	}
	word := l.src[start:l.pos]
	upper := strings.ToUpper(word)
	if keywords[upper] {
		l.toks = append(l.toks, token{kind: tokKeyword, text: upper, pos: start})
	} else {
		l.toks = append(l.toks, token{kind: tokIdent, text: word, pos: start})
	}
}

func (l *lexer) lexNumber(start int) {
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if unicode.IsDigit(rune(c)) {
			l.pos++
		} else if c == '.' && !seenDot {
			seenDot = true
			l.pos++
		} else {
			break
		}
	}
	l.toks = append(l.toks, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) lexString(start int) error {
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				sb.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.toks = append(l.toks, token{kind: tokString, text: sb.String(), pos: start})
			return nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("sqlx: unterminated string literal at offset %d", start)
}

func (l *lexer) lexQuotedIdent(start int) error {
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '"' {
			l.pos++
			l.toks = append(l.toks, token{kind: tokIdent, text: sb.String(), pos: start})
			return nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("sqlx: unterminated quoted identifier at offset %d", start)
}

var twoCharSymbols = map[string]bool{
	"<=": true, ">=": true, "<>": true, "!=": true, "||": true,
}

func (l *lexer) lexSymbol(start int) error {
	if l.pos+1 < len(l.src) {
		two := l.src[l.pos : l.pos+2]
		if twoCharSymbols[two] {
			l.pos += 2
			l.toks = append(l.toks, token{kind: tokSymbol, text: two, pos: start})
			return nil
		}
	}
	c := l.src[l.pos]
	switch c {
	case '(', ')', ',', '*', '+', '-', '/', '=', '<', '>', '.', ';', '%':
		l.pos++
		l.toks = append(l.toks, token{kind: tokSymbol, text: string(c), pos: start})
		return nil
	}
	return fmt.Errorf("sqlx: unexpected character %q at offset %d", c, start)
}
