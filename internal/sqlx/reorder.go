package sqlx

import "repro/internal/rel"

// Greedy join reordering: a maximal prefix of inner (or cross) joins is
// commutative, so its tables can be joined in any order as long as every
// ON conjunct of the prefix is evaluated once all its bindings are
// available. The planner starts from the smallest estimated filtered
// table and repeatedly joins the table with the cheapest estimated
// intermediate result, preferring equi-connected tables over cross
// products. LEFT JOINs are never reordered across: the prefix stops at
// the first outer join and the suffix binds in parse order.

// onConj is one ON conjunct of the reorderable prefix with its resolved
// binding set.
type onConj struct {
	cond
	bindings map[int]bool // prefix table indices referenced
	// bL/bR are the tables of a "colA = colB" equality across two
	// distinct tables — a join edge; -1 for any other conjunct.
	bL, bR int
}

// reorderInfo describes the maximal reorderable prefix.
type reorderInfo struct {
	n    int // tables[0:n] are reorderable
	pool []onConj
}

// reorderPrefix analyzes lg for a reorderable prefix of at least three
// tables. Reordering is conservative: every ON conjunct of the prefix
// must consist of explicitly qualified column references. (They resolve
// into the prefix: an ON sees only the tables joined before it.)
// Anything else keeps parse order.
func reorderPrefix(lg *logicalSelect) (*reorderInfo, bool) {
	if !ReorderJoins {
		return nil, false
	}
	n := 1
	for n < len(lg.tables) {
		k := lg.tables[n].join.Kind
		if k != JoinInner && k != JoinCross {
			break
		}
		n++
	}
	if n < 3 {
		return nil, false
	}
	info := &reorderInfo{n: n}
	for i := 1; i < n; i++ {
		for _, c := range lg.tables[i].onConds {
			oc := onConj{cond: c, bindings: make(map[int]bool), bL: -1, bR: -1}
			var refs []*colRef
			collectColumnRefs(c.expr, &refs)
			if len(refs) == 0 {
				return nil, false
			}
			for _, cr := range refs {
				if cr.Table == "" {
					return nil, false
				}
				oc.bindings[cr.tab] = true
			}
			if be, ok := c.expr.(*BinaryExpr); ok && be.Op == "=" {
				l, lok := be.Left.(*colRef)
				r, rok := be.Right.(*colRef)
				if lok && rok && l.tab != r.tab {
					oc.bL, oc.bR = l.tab, r.tab
				}
			}
			info.pool = append(info.pool, oc)
		}
	}
	return info, true
}

// covered reports whether every binding of oc is in the joined set, with
// t treated as joined.
func (oc *onConj) covered(joined []bool, t int) bool {
	for b := range oc.bindings {
		if b != t && !joined[b] {
			return false
		}
	}
	return true
}

// edgeWith reports whether oc is an equality edge connecting t to the
// joined set.
func (oc *onConj) edgeWith(joined []bool, t int) bool {
	if oc.bL < 0 {
		return false
	}
	return (oc.bL == t && joined[oc.bR]) || (oc.bR == t && joined[oc.bL])
}

// bindReordered binds the prefix greedily, then the suffix in parse
// order.
func bindReordered(db *rel.Database, lg *logicalSelect, info *reorderInfo) (*selectAccess, error) {
	bd := newBinder(db, lg)
	n := info.n
	rels := make([]*rel.Relation, n)
	base := make([]float64, n)
	for i := 0; i < n; i++ {
		r, err := lg.tables[i].relation(db)
		if err != nil {
			return nil, err
		}
		rels[i] = r
		base[i] = estimateFiltered(r, lg.tables[i].filters)
	}
	used := make([]bool, len(info.pool))
	joined := make([]bool, n)

	// Start from the smallest estimated filtered table; single-table ON
	// conjuncts on it become extra scan filters.
	start := 0
	for i := 1; i < n; i++ {
		if base[i] < base[start] {
			start = i
		}
	}
	joined[start] = true
	var extra []cond
	for ci := range info.pool {
		oc := &info.pool[ci]
		if len(oc.bindings) == 1 && oc.bindings[start] {
			used[ci] = true
			extra = append(extra, oc.cond)
		}
	}
	sel := &selectAccess{}
	sa, err := bindScan(bd, lg.tables[start], extra)
	if err != nil {
		return nil, err
	}
	sel.scan = sa
	cur := sa.est

	for len(sel.joins) < n-1 {
		bestT := -1
		var bestJa *joinAccess
		var bestUsed []int
		for t := 0; t < n; t++ {
			if joined[t] {
				continue
			}
			ja, consumed := planStep(bd, lg.tables[t], rels[t], info, used, joined, t, cur)
			if bestJa == nil || stepBetter(ja, bestJa) {
				bestT, bestJa, bestUsed = t, ja, consumed
			}
		}
		joined[bestT] = true
		for _, ci := range bestUsed {
			used[ci] = true
		}
		bd.rels[bestT] = bestJa.right
		sel.joins = append(sel.joins, bestJa)
		cur = bestJa.est
	}
	for i := n; i < len(lg.tables); i++ {
		ja, err := bindJoin(bd, lg.tables[i], cur)
		if err != nil {
			return nil, err
		}
		sel.joins = append(sel.joins, ja)
		cur = ja.est
	}
	return sel, nil
}

// planStep builds the candidate join step adding table t to the joined
// set: available pool conjuncts referencing t alone become right-side
// filters, the first equality edge to the joined set becomes the join
// key, and the rest apply as post-join filters. Returns the consumed
// conjunct indices (committed by the caller only if the step wins).
func planStep(bd *binder, tl *tableLogical, right *rel.Relation, info *reorderInfo, used, joined []bool, t int, leftEst float64) (*joinAccess, []int) {
	ja := &joinAccess{tl: tl, right: right, kind: JoinCross, filters: append([]cond{}, tl.filters...)}
	var consumed []int
	for ci := range info.pool {
		if used[ci] {
			continue
		}
		oc := &info.pool[ci]
		if !oc.covered(joined, t) {
			continue
		}
		consumed = append(consumed, ci)
		switch {
		case len(oc.bindings) == 1 && oc.bindings[t]:
			ja.filters = append(ja.filters, oc.cond)
		case ja.on == nil && oc.edgeWith(joined, t):
			ja.kind, ja.on, ja.onConds = JoinInner, oc.expr, []cond{oc.cond}
		default:
			ja.post = append(ja.post, oc.cond)
		}
	}
	bindJoinStrategy(bd, ja, leftEst)
	if len(ja.post) > 0 {
		ja.est *= selectivity(len(ja.post))
		if ja.est < 1 {
			ja.est = 1
		}
	}
	return ja, consumed
}

// stepBetter prefers equi-connected steps over cross products, then the
// smaller estimated intermediate.
func stepBetter(a, b *joinAccess) bool {
	if (a.on != nil) != (b.on != nil) {
		return a.on != nil
	}
	return a.est < b.est
}
