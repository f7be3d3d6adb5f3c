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
// and their bare columns its first row. Aggregates over empty input with
// no GROUP BY yield one row, whose bare columns are NULL.
type vecGroup struct {
	child vecIter
	lg    *logicalSelect
	rt    *run

	filled bool
	rows   []rel.Tuple
	pos    int
	out    []item
}

// group is one group's representative row and aggregate states.
type group struct {
	repr *env
	aggs []aggState
}

func (g *vecGroup) fill(ctx context.Context) error {
	lg := g.lg
	var gt groupTable
	var groups []group
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
			for ki, ge := range lg.groupBy {
				v, err := eval(ge, it.env)
				if err != nil {
					return err
				}
				keyScratch[ki] = v
			}
			idx, added := gt.findOrAdd(keyScratch)
			if added {
				groups = append(groups, group{repr: it.env, aggs: make([]aggState, len(lg.aggs))})
			}
			states := groups[idx].aggs
			for i, a := range lg.aggs {
				if a.Star {
					states[i].count++ // COUNT(*)
					continue
				}
				v, err := eval(a.Args[0], it.env)
				if err != nil {
					return err
				}
				states[i].add(v, a.Distinct)
			}
		}
	}
	// Aggregates over empty input with no GROUP BY produce one row.
	if len(groups) == 0 && len(lg.groupBy) == 0 {
		repr := &env{rt: g.rt, tuples: make([]rel.Tuple, len(lg.tables))}
		for i, tl := range lg.tables {
			repr.tuples[i] = make(rel.Tuple, tl.schema.Len())
		}
		groups = append(groups, group{repr: repr, aggs: make([]aggState, len(lg.aggs))})
	}
	for _, grp := range groups {
		e := *grp.repr
		e.aggs = make([]rel.Value, len(lg.aggs))
		for i, a := range lg.aggs {
			e.aggs[i] = grp.aggs[i].result(a.Name)
		}
		ok, err := holds(lg.having, &e)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		row := make(rel.Tuple, len(lg.items))
		for i, x := range lg.items {
			v, err := eval(x, &e)
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
