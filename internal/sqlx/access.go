package sqlx

import (
	"strings"

	"repro/internal/rel"
)

// This file is the bind half of the optimizer: Open (and Explain) take
// the logical plan from logical.go, its names already resolved, and a
// concrete database snapshot, and choose the physical access path of
// every scan and join node. Binding happens per Open, never at Prepare,
// so a cached Plan stays valid across warehouse commits — each Open sees
// the snapshot's relations, their persistent hash indexes and their
// statistics blocks as they are now.
//
// Estimation is cost-based where statistics exist: selection
// selectivities come from per-column distinct counts, null counts and
// equi-depth histograms (rel.Stats), and equi-join output sizes from
// the textbook |L|·|R| / max(ndv(L.a), ndv(R.b)) containment
// assumption. Relations without a statistics block fall back to the
// fixed guesses below, so ad-hoc databases still plan sensibly.

// Default selectivity guesses where neither an index nor statistics
// give counts: an equality predicate keeps 1/eqSelectivityDiv of the
// rows, any other predicate 1/filterSelectivityDiv.
const (
	eqSelectivityDiv     = 10
	filterSelectivityDiv = 3
)

// ReorderJoins toggles greedy reordering of inner equi-join chains.
// Exported so benchmarks can compare the reordered plan against the
// parse-order plan; always on in production use.
var ReorderJoins = true

// binder accumulates the relations bound so far during one bindSelect,
// so later join steps can estimate distinct counts of columns on any
// earlier table.
type binder struct {
	db   *rel.Database
	rels []*rel.Relation // by FROM position; nil until bound
}

func newBinder(db *rel.Database, lg *logicalSelect) *binder {
	return &binder{db: db, rels: make([]*rel.Relation, len(lg.tables))}
}

// ndv estimates the distinct count of the referenced column in its base
// relation; 0 when its table is not bound yet or has no statistics.
func (bd *binder) ndv(c *colRef) float64 {
	if c == nil || bd.rels[c.tab] == nil {
		return 0
	}
	return bd.rels[c.tab].Stats.DistinctEst(c.Column)
}

// selectAccess is the bound physical plan of one SELECT (without its
// union chain): the base-table access path and the join steps in
// execution order — possibly reordered. buildSelect binds it for Open,
// EXPLAIN and EXPLAIN ANALYZE alike and returns the plan nodes beside the
// operators it builds, so the plan shown is always the plan run: the
// access paths and every operator above them.
type selectAccess struct {
	scan  *scanAccess
	joins []*joinAccess
}

// bindSelect chooses every access path of one SELECT against db. Inner
// equi-join chains of three or more tables are greedily reordered by
// estimated intermediate cardinality (never across a LEFT JOIN).
func bindSelect(db *rel.Database, lg *logicalSelect) (*selectAccess, error) {
	sel := &selectAccess{}
	if len(lg.tables) == 0 {
		return sel, nil
	}
	if info, ok := reorderPrefix(lg); ok {
		return bindReordered(db, lg, info)
	}
	bd := newBinder(db, lg)
	sa, err := bindScan(bd, lg.tables[0], nil)
	if err != nil {
		return nil, err
	}
	sel.scan = sa
	leftEst := sa.est
	for _, tl := range lg.tables[1:] {
		ja, err := bindJoin(bd, tl, leftEst)
		if err != nil {
			return nil, err
		}
		sel.joins = append(sel.joins, ja)
		leftEst = ja.est
	}
	return sel, nil
}

// scanAccess is the bound access path of one table scan.
type scanAccess struct {
	tl *tableLogical
	r  *rel.Relation
	// idx/eq are set for an index access path: the scan probes idx with
	// eq.val instead of reading every tuple.
	idx *rel.Index
	eq  *eqPred
	// filters are the pushed-down conjuncts still to evaluate per tuple
	// (the conjunct served by the index probe is excluded).
	filters []cond
	// est is the estimated output cardinality. Index probes report the
	// exact bucket size; everything else applies statistics-based (or
	// fallback) selectivities.
	est float64
}

// bindScan chooses the access path for one table: the most selective
// usable index probe (exact bucket sizes are known at bind time), or a
// sequential scan. extra holds ON conjuncts reassigned to this table by
// join reordering; they filter (and shrink the estimate) like pushed
// WHERE conjuncts but never probe an index.
func bindScan(bd *binder, tl *tableLogical, extra []cond) (*scanAccess, error) {
	r, err := tl.relation(bd.db)
	if err != nil {
		return nil, err
	}
	sa := &scanAccess{tl: tl, r: r}
	defer func() { bd.rels[tl.pos] = r }()
	best := -1
	bestCount := 0
	for i := range tl.eq {
		ix := r.HashIndex(tl.eq[i].col)
		if ix == nil {
			continue
		}
		n := len(ix.Lookup(tl.eq[i].val))
		if best < 0 || n < bestCount {
			best, bestCount = i, n
			sa.idx = ix
		}
	}
	if best >= 0 {
		sa.eq = &tl.eq[best]
		sa.est = float64(bestCount)
		for _, f := range tl.filters {
			if f.expr == sa.eq.expr {
				continue
			}
			sa.filters = append(sa.filters, f)
			sa.est *= predSelectivity(r, f.expr)
		}
		for _, f := range extra {
			sa.filters = append(sa.filters, f)
			sa.est *= predSelectivity(r, f.expr)
		}
		if sa.est < 1 && bestCount > 0 {
			sa.est = 1
		}
		return sa, nil
	}
	sa.filters = tl.filters
	if len(extra) > 0 {
		sa.filters = append(append([]cond{}, tl.filters...), extra...)
	}
	sa.est = estimateFiltered(r, sa.filters)
	return sa, nil
}

// estimateFiltered estimates the rows of r surviving the given pushed
// conjuncts, multiplying per-predicate selectivities.
func estimateFiltered(r *rel.Relation, filters []cond) float64 {
	est := float64(r.Cardinality())
	for _, f := range filters {
		est *= predSelectivity(r, f.expr)
	}
	if est < 1 && r.Cardinality() > 0 {
		est = 1
	}
	return est
}

// predSelectivity estimates the fraction of r's rows satisfying one
// conjunct, from the relation's statistics block when present, falling
// back to the fixed guesses: equality 1/distinct (uniform-frequency),
// ranges and BETWEEN from the equi-depth histogram, IS [NOT] NULL from
// the null count, IN from the list length.
func predSelectivity(r *rel.Relation, e Expr) float64 {
	st := r.Stats
	switch x := e.(type) {
	case *BinaryExpr:
		c, v, op, ok := colConst(x)
		if !ok {
			break
		}
		switch col := c.Column; op {
		case "=":
			if sel, ok := st.EqSelectivity(col); ok {
				return clampSel(sel)
			}
			return 1.0 / eqSelectivityDiv
		case "<>":
			if sel, ok := st.EqSelectivity(col); ok {
				return clampSel((1 - st.NullFraction(col)) - sel)
			}
		case "<", "<=", ">", ">=":
			if sel, ok := rangeSelectivity(st, col, v, op); ok {
				return clampSel(sel)
			}
		}
	case *IsNullExpr:
		if cr, ok := x.Expr.(*colRef); ok && st.Col(cr.Column) != nil {
			nf := st.NullFraction(cr.Column)
			if x.Negate {
				return clampSel(1 - nf)
			}
			return clampSel(nf)
		}
	case *BetweenExpr:
		cr, okc := x.Expr.(*colRef)
		lo, okl := litVal(x.Lo)
		hi, okh := litVal(x.Hi)
		if okc && okl && okh {
			fhi, ok := st.LessFraction(cr.Column, hi, true)
			if ok {
				flo, _ := st.LessFraction(cr.Column, lo, false)
				sel := (fhi - flo) * (1 - st.NullFraction(cr.Column))
				if x.Negate {
					sel = 1 - sel
				}
				return clampSel(sel)
			}
		}
	case *InExpr:
		if cr, ok := x.Expr.(*colRef); ok && x.Sub == nil && len(x.List) > 0 {
			if sel, ok := st.EqSelectivity(cr.Column); ok {
				s := sel * float64(len(x.List))
				if x.Negate {
					s = 1 - s
				}
				return clampSel(s)
			}
		}
	}
	return 1.0 / filterSelectivityDiv
}

// clampSel bounds a selectivity estimate to (0, 1]; estimates never hit
// exactly zero so downstream operators keep a nonzero row floor.
func clampSel(s float64) float64 {
	if s < 1e-4 {
		return 1e-4
	}
	if s > 1 {
		return 1
	}
	return s
}

// colConst recognizes "column OP constant" (either order; comparison
// operators are mirrored when the constant is on the left).
func colConst(be *BinaryExpr) (c *colRef, v rel.Value, op string, ok bool) {
	if cr, k := be.Left.(*colRef); k {
		if lit, k2 := be.Right.(*Literal); k2 {
			return cr, lit.Value, be.Op, true
		}
	}
	if cr, k := be.Right.(*colRef); k {
		if lit, k2 := be.Left.(*Literal); k2 {
			return cr, lit.Value, mirrorOp(be.Op), true
		}
	}
	return nil, rel.Value{}, "", false
}

func mirrorOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

func litVal(e Expr) (rel.Value, bool) {
	if lit, ok := e.(*Literal); ok {
		return lit.Value, true
	}
	return rel.Value{}, false
}

// rangeSelectivity estimates a range predicate from the histogram,
// scaled by the non-null fraction (histograms cover non-null values).
func rangeSelectivity(st *rel.Stats, col string, v rel.Value, op string) (float64, bool) {
	var frac float64
	var ok bool
	switch op {
	case "<":
		frac, ok = st.LessFraction(col, v, false)
	case "<=":
		frac, ok = st.LessFraction(col, v, true)
	case ">":
		frac, ok = st.LessFraction(col, v, true)
		frac = 1 - frac
	case ">=":
		frac, ok = st.LessFraction(col, v, false)
		frac = 1 - frac
	default:
		return 0, false
	}
	if !ok {
		return 0, false
	}
	return frac * (1 - st.NullFraction(col)), true
}

// joinStrategy enumerates the physical join operators.
type joinStrategy int

const (
	// joinCrossSeq pairs every left row with the (filtered) right tuples.
	joinCrossSeq joinStrategy = iota
	// joinIndexProbe probes the right relation's persistent hash index
	// per left row — no per-query build cost, no per-query memory.
	joinIndexProbe
	// joinHashBuildRight lazily hashes the (filtered) right relation on
	// first use and probes it per left row.
	joinHashBuildRight
	// joinHashBuildLeft drains the smaller left input into the hash table
	// and streams the right relation through it (inner joins only).
	joinHashBuildLeft
	// joinNestedLoop evaluates the ON predicate per pair.
	joinNestedLoop
)

func (k joinStrategy) String() string {
	switch k {
	case joinCrossSeq:
		return "CrossJoin"
	case joinIndexProbe:
		return "IndexJoin"
	case joinHashBuildRight:
		return "HashJoin(build=right)"
	case joinHashBuildLeft:
		return "HashJoin(build=left)"
	case joinNestedLoop:
		return "NestedLoopJoin"
	}
	return "Join"
}

// joinAccess is the bound access path of one join step.
type joinAccess struct {
	tl       *tableLogical
	right    *rel.Relation
	strategy joinStrategy
	// kind/on are the effective join kind and predicate of this step,
	// and onConds on's conjuncts. After reordering they may differ from
	// the parsed clause: ON conjuncts are reassigned to the first step
	// where all their bindings are available.
	kind    JoinKind
	on      Expr
	onConds []cond
	// leftCol/rightIdx describe the equi-join columns (probe modes).
	leftCol  *colRef
	rightCol string
	rightIdx int
	// idx is the right relation's persistent index (joinIndexProbe).
	idx *rel.Index
	// filters are pushed-down conjuncts on the joined table, applied to
	// right tuples before matching.
	filters []cond
	// post holds reassigned multi-table conjuncts evaluated on the
	// joined rows above this step (reordered plans only).
	post []cond
	// prevec, when set, replaces the lazily built joinHashBuildRight
	// table: parallel execution shares one build across all morsels.
	prevec *joinTable
	// precross, when set, replaces the per-iterator filtered right side
	// of joinCrossSeq for the same reason.
	precross []rel.Tuple
	// est is the estimated output cardinality of the join.
	est float64
}

// bindJoin chooses the join strategy for one parse-order JOIN step given
// the estimated cardinality of the left input.
func bindJoin(bd *binder, tl *tableLogical, leftEst float64) (*joinAccess, error) {
	right, err := tl.relation(bd.db)
	if err != nil {
		return nil, err
	}
	ja := &joinAccess{tl: tl, right: right, kind: tl.join.Kind, on: tl.on, onConds: tl.onConds, filters: tl.filters}
	bindJoinStrategy(bd, ja, leftEst)
	bd.rels[tl.pos] = right
	return ja, nil
}

// bindJoinStrategy picks the physical operator and estimate for a join
// step whose kind, on and filters are already set: an index-backed probe
// when the right join column has a persistent hash index, otherwise a
// hash join built on the estimated smaller side (inner joins only —
// outer joins keep the right build so null extension follows left
// order), and a nested loop for non-equi predicates.
func bindJoinStrategy(bd *binder, ja *joinAccess, leftEst float64) {
	right := ja.right
	rightEst := estimateFiltered(right, ja.filters)
	if ja.kind == JoinCross && ja.on == nil {
		ja.strategy = joinCrossSeq
		ja.est = leftEst * rightEst
		return
	}
	if leftCol, rightCol, ok := equiJoinCols(ja.on, ja.tl.pos); ok {
		ja.leftCol, ja.rightIdx = leftCol, rightCol.col
		ja.rightCol = right.Schema.Columns[rightCol.col].Name
		switch {
		case right.HashIndex(ja.rightCol) != nil:
			ja.strategy = joinIndexProbe
			ja.idx = right.HashIndex(ja.rightCol)
		case ja.kind == JoinInner && leftEst < float64(right.Cardinality()):
			ja.strategy = joinHashBuildLeft
		default:
			ja.strategy = joinHashBuildRight
		}
		ja.est = equiJoinEst(bd, ja, leftEst, rightEst)
		return
	}
	ja.strategy = joinNestedLoop
	ja.est = leftEst * rightEst / filterSelectivityDiv
	if ja.est < 1 {
		ja.est = 1
	}
}

// equiJoinEst estimates equi-join output as |L|·|R| / max(ndv(L.a),
// ndv(R.b)) over the filtered inputs — the containment assumption.
// Without statistics it falls back to index-derived average match
// counts. LEFT JOIN output never shrinks below the left input.
func equiJoinEst(bd *binder, ja *joinAccess, leftEst, rightEst float64) float64 {
	ndvL := bd.ndv(ja.leftCol)
	ndvR := ja.right.Stats.DistinctEst(ja.rightCol)
	d := ndvL
	if ndvR > d {
		d = ndvR
	}
	var est float64
	if d > 0 {
		est = leftEst * rightEst / d
	} else {
		est = leftEst * avgMatches(ja.right, ja.rightCol) * selectivity(len(ja.filters))
	}
	if ja.kind == JoinLeft && est < leftEst {
		est = leftEst
	}
	if est < 1 {
		est = 1
	}
	return est
}

// avgMatches estimates how many right tuples one left row matches on the
// join column: exact n/distinct from the index when present, 1 for
// unique/primary-key columns, a selectivity guess otherwise.
func avgMatches(r *rel.Relation, col string) float64 {
	n := float64(r.Cardinality())
	if n == 0 {
		return 0
	}
	if ix := r.HashIndex(col); ix != nil && ix.Len() > 0 {
		return n / float64(ix.Len())
	}
	if isDeclaredUnique(r, col) {
		return 1
	}
	m := n / eqSelectivityDiv
	if m < 1 {
		return 1
	}
	return m
}

func isDeclaredUnique(r *rel.Relation, col string) bool {
	if r.PrimaryKey != "" && strings.EqualFold(r.PrimaryKey, col) {
		return true
	}
	for c, u := range r.UniqueCols {
		if u && strings.EqualFold(c, col) {
			return true
		}
	}
	return false
}

// selectivity is the combined fallback guess for n pushed filters.
func selectivity(n int) float64 {
	s := 1.0
	for i := 0; i < n; i++ {
		s /= filterSelectivityDiv
	}
	return s
}
