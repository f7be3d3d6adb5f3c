package sqlx

import (
	"context"
	"io"

	"repro/internal/rel"
)

// vecGroup is the GROUP BY / aggregate pipeline breaker: on first pull
// it drains the child, groups and aggregates (including HAVING and
// projection), and then streams the result rows in first-seen group
// order. Groups live in the open-addressing groupTable: keys are
// evaluated into a reused scratch slice and only copied into the table's
// flat arena when a new group appears, so steady-state accumulation of
// an existing group allocates nothing. Each group keeps one state per
// aggregate slot the resolver numbered; HAVING and the items then
// evaluate once per group, their aggregates reading the group's results
// and their bare columns its first row, whose tuple slots the group
// keeps a copy of. Aggregates over empty input with no GROUP BY yield one
// row, whose bare columns are NULL.
type vecGroup struct {
	child vecIter
	lg    *logicalSelect
	rt    *run

	filled bool
	rows   []rel.Tuple
	pos    int
	a      *arena
}

// group is one group's representative row and aggregate states.
type group struct {
	repr []rel.Tuple
	aggs []aggState
}

func (g *vecGroup) fill(ctx context.Context) error {
	lg := g.lg
	var gt groupTable
	var groups []group
	var reprs kept[rel.Tuple]
	keyScratch := make([]rel.Value, len(lg.groupBy))
	for {
		items, err := g.child.next(ctx, vecBatch)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		for _, it := range items {
			for ki, key := range lg.groupKeys {
				v, err := key(it.env)
				if err != nil {
					return err
				}
				keyScratch[ki] = v
			}
			idx, added := gt.findOrAdd(keyScratch)
			if added {
				groups = append(groups, group{repr: reprs.copy(it.env.tuples), aggs: make([]aggState, len(lg.aggs))})
			}
			states := groups[idx].aggs
			for i, a := range lg.aggs {
				if a.Star {
					states[i].count++ // COUNT(*)
					continue
				}
				v, err := lg.aggArgs[i](it.env)
				if err != nil {
					return err
				}
				states[i].add(v, a.Distinct)
			}
		}
	}
	// Aggregates over empty input with no GROUP BY produce one row.
	if len(groups) == 0 && len(lg.groupBy) == 0 {
		repr := make([]rel.Tuple, len(lg.tables))
		for i, tl := range lg.tables {
			repr[i] = make(rel.Tuple, tl.schema.Len())
		}
		groups = append(groups, group{repr: repr, aggs: make([]aggState, len(lg.aggs))})
	}
	var rows kept[rel.Value]
	e := env{rt: g.rt, aggs: make([]rel.Value, len(lg.aggs))}
	for _, grp := range groups {
		e.tuples = grp.repr
		for i, a := range lg.aggs {
			e.aggs[i] = grp.aggs[i].result(a.Name)
		}
		ok, err := allHold(lg.having, &e)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		row := rows.alloc(len(lg.items))
		for i, item := range lg.items {
			v, err := item(&e)
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
	g.a = g.rt.batch(g.a)
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
	var out []item
	g.a.items, out = carve(g.a.items, n)
	for i := range out {
		out[i].row = g.rows[g.pos+i]
	}
	g.pos += n
	return out, nil
}
