package sqlx

import (
	"context"
	"fmt"
	"io"

	"repro/internal/rel"
)

// vecGroup is the GROUP BY / aggregate pipeline breaker: on first pull
// it drains the child, groups and aggregates (including HAVING and
// projection), and then streams the result rows in first-seen group
// order. Groups live in the open-addressing groupTable: keys are
// evaluated into a reused scratch slice and only copied into the table's
// flat arena when a new group appears, so steady-state accumulation of
// an existing group allocates nothing. Bare columns evaluate against a
// group's first row; aggregates over empty input with no GROUP BY yield
// one row.
type vecGroup struct {
	child vecIter
	s     *SelectStmt
	items []SelectItem
	rt    *run

	filled bool
	rows   []rel.Tuple
	pos    int
	out    []item
}

func (g *vecGroup) fill(ctx context.Context) error {
	var aggs []*FuncExpr
	for _, it := range g.items {
		collectAggs(it.Expr, &aggs)
	}
	if g.s.Having != nil {
		collectAggs(g.s.Having, &aggs)
	}
	var gt groupTable
	var groups []*group
	keyScratch := make([]rel.Value, len(g.s.GroupBy))
	for {
		items, err := g.child.next(ctx, vecBatch)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		for _, it := range items {
			for ki, ge := range g.s.GroupBy {
				v, err := eval(ge, it.env)
				if err != nil {
					return err
				}
				keyScratch[ki] = v
			}
			idx, added := gt.findOrAdd(keyScratch)
			if added {
				ng := &group{repr: it.env, aggs: make(map[*FuncExpr]*aggState)}
				for _, a := range aggs {
					ng.aggs[a] = newAggState()
				}
				groups = append(groups, ng)
			}
			grp := groups[idx]
			grp.star++
			for _, a := range aggs {
				if a.Star {
					continue
				}
				if len(a.Args) != 1 {
					return fmt.Errorf("sqlx: aggregate %s takes 1 argument", a.Name)
				}
				v, err := eval(a.Args[0], it.env)
				if err != nil {
					return err
				}
				grp.aggs[a].add(v, a.Distinct)
			}
		}
	}
	// Aggregates over empty input with no GROUP BY produce one row.
	if len(groups) == 0 && len(g.s.GroupBy) == 0 {
		ng := &group{repr: &env{rt: g.rt}, aggs: make(map[*FuncExpr]*aggState)}
		for _, a := range aggs {
			ng.aggs[a] = newAggState()
		}
		groups = append(groups, ng)
	}
	for _, grp := range groups {
		if g.s.Having != nil {
			v, err := evalGrouped(g.s.Having, grp)
			if err != nil {
				return err
			}
			if b, ok := v.AsBool(); !ok || !b {
				continue
			}
		}
		row := make(rel.Tuple, len(g.items))
		for i, it := range g.items {
			v, err := evalGrouped(it.Expr, grp)
			if err != nil {
				return err
			}
			row[i] = v
		}
		g.rows = append(g.rows, row)
	}
	return nil
}

func (g *vecGroup) next(ctx context.Context, want int) ([]item, error) {
	if !g.filled {
		if err := g.fill(ctx); err != nil {
			return nil, err
		}
		g.filled = true
	}
	n := len(g.rows) - g.pos
	if n <= 0 {
		return nil, io.EOF
	}
	if n > want {
		n = want
	}
	if cap(g.out) < n {
		g.out = make([]item, vecBatch)
	}
	out := g.out[:n]
	for i := 0; i < n; i++ {
		out[i] = item{row: g.rows[g.pos+i]}
	}
	g.pos += n
	return out, nil
}
