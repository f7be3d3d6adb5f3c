package sqlx

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/rel"
)

// Explain renders the operator tree the plan would execute against db —
// the same bindSelect step as Open, minus execution, so the join order
// and access paths shown are exactly the ones execution would use.
// Every node carries its estimated cardinality; scan and join nodes
// name their chosen access path (IndexScan, Scan, IndexJoin, HashJoin
// with build side, NestedLoopJoin, CrossJoin), and index probes report
// exact bucket sizes from the snapshot's persistent hash indexes.
// Because access paths bind per snapshot, explaining a cached plan
// against a newer snapshot shows the paths that snapshot would use.
func (p *Plan) Explain(db *rel.Database) (string, error) {
	lg := p.lg
	if lg == nil {
		lg = buildLogical(db, p.stmt)
	}
	root, err := explainTree(db, p.stmt, lg, nil)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	renderExplain(&b, root, "", "")
	return b.String(), nil
}

// explainNode is one rendered operator: its label, estimated output
// cardinality, and (EXPLAIN ANALYZE only) the meter with actual rows
// and cumulative time.
type explainNode struct {
	label    string
	est      float64
	hasEst   bool
	meter    *opMeter
	children []*explainNode
}

func wrapNode(label string, est float64, m *opMeter, child *explainNode) *explainNode {
	n := &explainNode{label: label, est: est, hasEst: true, meter: m}
	if child != nil {
		n.children = []*explainNode{child}
	}
	return n
}

// meterOf reads one meter slot nil-safely.
func meterOf(bm *selMeters, f func(*selMeters) *opMeter) *opMeter {
	if bm == nil {
		return nil
	}
	return f(bm)
}

func planMeterOf(pm *planMeters, f func(*planMeters) *opMeter) *opMeter {
	if pm == nil {
		return nil
	}
	return f(pm)
}

// explainTree builds the operator tree for a statement including its
// UNION chain, mirroring vecOpenSelect. pm pairs executed meters with the
// rendered nodes (nil for plain EXPLAIN).
func explainTree(db *rel.Database, s *SelectStmt, lg *logicalSelect, pm *planMeters) (*explainNode, error) {
	head, err := explainSelect(db, s, lg, pm.branch(0))
	if err != nil {
		return nil, err
	}
	if s.Union == nil {
		return head, nil
	}
	union := &explainNode{children: []*explainNode{head}}
	est := head.est
	allMode := true
	bi := 1
	for cur, curLg := s, lg; cur.Union != nil; cur, curLg = cur.Union, curLg.union {
		branch, err := explainSelect(db, cur.Union, curLg.union, pm.branch(bi))
		bi++
		if err != nil {
			return nil, err
		}
		union.children = append(union.children, branch)
		est += branch.est
		if !cur.UnionAll {
			allMode = false
		}
	}
	union.label = "UnionAll"
	union.est, union.hasEst = est, true
	union.meter = planMeterOf(pm, func(m *planMeters) *opMeter { return m.union })
	root := union
	if !allMode {
		union.label = "Union"
		root = wrapNode("Distinct", est, planMeterOf(pm, func(m *planMeters) *opMeter { return m.unionDistinct }), root)
	}
	if len(s.OrderBy) > 0 {
		root = wrapNode(sortLabel(s.OrderBy), est, planMeterOf(pm, func(m *planMeters) *opMeter { return m.unionSort }), root)
	}
	if s.Limit >= 0 || s.Offset > 0 {
		est = limitEst(est, s)
		root = wrapNode(limitLabel(s), est, planMeterOf(pm, func(m *planMeters) *opMeter { return m.unionLimit }), root)
	}
	return root, nil
}

// explainSelect builds the operator chain of one SELECT through the
// same bindSelect as execution, annotating every node with its
// cardinality estimate.
func explainSelect(db *rel.Database, s *SelectStmt, lg *logicalSelect, bm *selMeters) (*explainNode, error) {
	headOfUnion := s.Union != nil
	var cur *explainNode
	var est float64
	var sel *selectAccess
	if s.From == nil {
		est = 1
		cur = wrapNode("Result(1 row)", est, meterOf(bm, func(m *selMeters) *opMeter { return m.scan }), nil)
	} else {
		var err error
		sel, err = bindSelect(db, lg)
		if err != nil {
			return nil, err
		}
		est = sel.scan.est
		cur = wrapNode(scanLabel(sel.scan), est, meterOf(bm, func(m *selMeters) *opMeter { return m.scan }), nil)
		for i, ja := range sel.joins {
			est = ja.est
			cur = wrapNode(joinLabel(ja), est, bm.joinMeter(i), cur)
		}
	}
	if len(lg.residual) > 0 {
		est = filterEst(est, len(lg.residual))
		cur = wrapNode("Filter("+exprList(lg.residual)+")", est,
			meterOf(bm, func(m *selMeters) *opMeter { return m.residual }), cur)
	}
	// The exchange appears only in EXPLAIN ANALYZE, where execution
	// recorded whether the branch actually ran parallel morsels.
	if bm != nil && bm.gather != nil {
		cur = wrapNode(fmt.Sprintf("Gather(workers=%d, morsels=%d)", bm.gatherWorkers, bm.gatherMorsels),
			est, bm.gather, cur)
	}
	items, cols, err := expandItems(db, s)
	if err != nil {
		return nil, err
	}
	grouped := len(s.GroupBy) > 0
	if !grouped {
		for _, si := range items {
			if si.Expr != nil && isAggregate(si.Expr) {
				grouped = true
				break
			}
		}
	}
	if grouped {
		label := "Aggregate(" + strings.Join(cols, ", ") + ")"
		if len(s.GroupBy) > 0 {
			label = "Aggregate(group by " + exprList(s.GroupBy) + ": " + strings.Join(cols, ", ") + ")"
		}
		est = groupEst(db, sel, s.GroupBy, est)
		cur = wrapNode(label, est, meterOf(bm, func(m *selMeters) *opMeter { return m.agg }), cur)
	} else {
		cur = wrapNode("Project("+strings.Join(cols, ", ")+")", est,
			meterOf(bm, func(m *selMeters) *opMeter { return m.agg }), cur)
	}
	if !headOfUnion && len(s.OrderBy) > 0 {
		cur = wrapNode(sortLabel(s.OrderBy), est, meterOf(bm, func(m *selMeters) *opMeter { return m.sort }), cur)
	}
	if s.Distinct {
		cur = wrapNode("Distinct", est, meterOf(bm, func(m *selMeters) *opMeter { return m.distinct }), cur)
	}
	if !headOfUnion && (s.Limit >= 0 || s.Offset > 0) {
		est = limitEst(est, s)
		cur = wrapNode(limitLabel(s), est, meterOf(bm, func(m *selMeters) *opMeter { return m.limit }), cur)
	}
	return cur, nil
}

// joinMeter returns the i'th join meter, nil-safely.
func (bm *selMeters) joinMeter(i int) *opMeter {
	if bm == nil || i >= len(bm.joins) {
		return nil
	}
	return bm.joins[i]
}

// filterEst applies the fallback selectivity guess for n residual
// conjuncts (they span bindings, so per-column statistics do not apply).
func filterEst(in float64, n int) float64 {
	out := in * selectivity(n)
	if out < 1 && in >= 1 {
		out = 1
	}
	return out
}

// limitEst caps an estimate by OFFSET/LIMIT.
func limitEst(in float64, s *SelectStmt) float64 {
	out := in
	if s.Offset > 0 {
		out -= float64(s.Offset)
		if out < 0 {
			out = 0
		}
	}
	if s.Limit >= 0 && out > float64(s.Limit) {
		out = float64(s.Limit)
	}
	return out
}

// groupEst estimates group count as the product of the grouping
// columns' distinct counts (fallback guess per non-column key), capped
// by the input cardinality.
func groupEst(db *rel.Database, sel *selectAccess, groupBy []Expr, in float64) float64 {
	if len(groupBy) == 0 {
		return 1
	}
	bd := newBinder(db)
	if sel != nil {
		if sel.scan != nil {
			bd.add(sel.scan.binding, sel.scan.r)
		}
		for _, ja := range sel.joins {
			bd.add(ja.binding, ja.right)
		}
	}
	est := 1.0
	for _, e := range groupBy {
		d := 0.0
		if cr, ok := e.(*ColumnRef); ok {
			d = bd.ndv(cr)
		}
		if d <= 0 {
			d = eqSelectivityDiv
		}
		est *= d
	}
	if est > in {
		est = in
	}
	if est < 1 && in >= 1 {
		est = 1
	}
	return est
}

// scanLabel names a table access path: the index probe with its bound
// constant, or the sequential scan, plus any remaining pushed filters.
func scanLabel(sa *scanAccess) string {
	var b strings.Builder
	if sa.idx != nil {
		fmt.Fprintf(&b, "IndexScan(%s", tableName(sa.tl.ref))
		fmt.Fprintf(&b, ": %s = %s", strings.ToLower(sa.eq.col), sa.eq.val.String())
	} else {
		fmt.Fprintf(&b, "Scan(%s", tableName(sa.tl.ref))
	}
	if len(sa.filters) > 0 {
		fmt.Fprintf(&b, ", filter %s", exprList(sa.filters))
	}
	b.WriteString(")")
	return b.String()
}

// joinLabel names a join access path with its effective (possibly
// reassigned) predicate, right-side filters and post-join filters.
func joinLabel(ja *joinAccess) string {
	var b strings.Builder
	b.WriteString(ja.strategy.String())
	b.WriteString("(")
	if ja.kind == JoinLeft {
		b.WriteString("left outer, ")
	}
	b.WriteString(tableName(ja.tl.ref))
	if ja.on != nil {
		b.WriteString(" ON ")
		b.WriteString(exprString(ja.on))
	}
	if len(ja.filters) > 0 {
		fmt.Fprintf(&b, ", filter %s", exprList(ja.filters))
	}
	if len(ja.post) > 0 {
		fmt.Fprintf(&b, ", post %s", exprList(ja.post))
	}
	b.WriteString(")")
	return b.String()
}

func tableName(ref *TableRef) string {
	if ref.Alias != "" {
		return strings.ToLower(ref.Name) + " AS " + strings.ToLower(ref.Alias)
	}
	return strings.ToLower(ref.Name)
}

func sortLabel(order []OrderItem) string {
	parts := make([]string, len(order))
	for i, oi := range order {
		parts[i] = exprString(oi.Expr)
		if oi.Desc {
			parts[i] += " DESC"
		}
	}
	return "Sort(" + strings.Join(parts, ", ") + ")"
}

func limitLabel(s *SelectStmt) string {
	switch {
	case s.Limit >= 0 && s.Offset > 0:
		return fmt.Sprintf("Limit(%d offset %d)", s.Limit, s.Offset)
	case s.Limit >= 0:
		return fmt.Sprintf("Limit(%d)", s.Limit)
	default:
		return fmt.Sprintf("Offset(%d)", s.Offset)
	}
}

func exprList(list []Expr) string {
	parts := make([]string, len(list))
	for i, e := range list {
		parts[i] = exprString(e)
	}
	return strings.Join(parts, " AND ")
}

// renderExplain prints the tree with box-drawing connectors. Every node
// shows its estimate; metered nodes (EXPLAIN ANALYZE) add actual rows
// and cumulative operator time.
func renderExplain(b *strings.Builder, n *explainNode, prefix, childPrefix string) {
	b.WriteString(prefix)
	b.WriteString(n.label)
	if n.hasEst {
		fmt.Fprintf(b, " [rows≈%.0f", n.est)
		if n.meter != nil {
			fmt.Fprintf(b, " actual=%d time=%s",
				atomic.LoadInt64(&n.meter.rows), fmtNanos(atomic.LoadInt64(&n.meter.nanos)))
			if batches := atomic.LoadInt64(&n.meter.batches); batches > 0 {
				fmt.Fprintf(b, " batches=%d", batches)
			}
		}
		b.WriteByte(']')
	}
	b.WriteByte('\n')
	for i, c := range n.children {
		last := i == len(n.children)-1
		connector, extend := "├─ ", "│  "
		if last {
			connector, extend = "└─ ", "   "
		}
		renderExplain(b, c, childPrefix+connector, childPrefix+extend)
	}
}
