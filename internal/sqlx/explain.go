package sqlx

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/rel"
)

// EXPLAIN renders the plan node tree that buildSelect returns beside the
// operators it builds, so the tree shown is the tree that runs — access
// paths, join order, and every operator above them. Every node carries
// its estimated cardinality; scan and join nodes name their chosen access
// path (IndexScan, Scan, IndexJoin, HashJoin with build side,
// NestedLoopJoin, CrossJoin), and index probes report exact bucket sizes
// from the snapshot's persistent hash indexes. EXPLAIN ANALYZE (see
// analyze.go) runs the same tree with a meter on every node.

// Explain renders the operator tree the plan would execute against db.
// It builds the tree as Open does but executes nothing: no tuple is read
// and no IN subquery runs. Because access paths bind per snapshot,
// explaining a cached plan against a newer snapshot shows the paths that
// snapshot would use.
func (p *Plan) Explain(db *rel.Database) (string, error) {
	rt := newRun()
	rt.explain = true
	_, _, root, err := buildSelect(context.Background(), db, p.lg, rt)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	renderExplain(&b, root, "", "")
	return b.String(), nil
}

// explainNode is the plan node of one built operator: its label,
// estimated output cardinality, and under EXPLAIN ANALYZE the meter with
// its actual rows, batches and cumulative time.
type explainNode struct {
	label    string
	est      float64
	meter    *opMeter
	children []*explainNode
}

// node makes a plan node over children, owning a meter under EXPLAIN
// ANALYZE.
func (rt *run) node(label string, est float64, children ...*explainNode) *explainNode {
	n := &explainNode{label: label, est: est, children: children}
	if rt.analyze {
		n.meter = &opMeter{}
	}
	return n
}

// metered wraps it, the operator n describes, in n's meter, if any.
func (n *explainNode) metered(it vecIter) vecIter {
	if n.meter == nil {
		return it
	}
	return &vecMeter{child: it, m: n.meter}
}

// trace returns the operator it, just built over child's operator, with
// its plan node: nil for an untraced run, so labels and estimates cost
// nothing there. describe gives the node's label and estimate from
// child's estimate.
func (rt *run) trace(it vecIter, child *explainNode, describe func(in float64) (string, float64)) (vecIter, *explainNode) {
	if !rt.explain {
		return it, nil
	}
	label, est := describe(child.est)
	n := rt.node(label, est, child)
	return n.metered(it), n
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
func groupEst(db *rel.Database, sel *selectAccess, lg *logicalSelect, in float64) float64 {
	if len(lg.groupBy) == 0 {
		return 1
	}
	bd := newBinder(db, lg)
	if sel.scan != nil {
		bd.rels[sel.scan.tl.pos] = sel.scan.r
	}
	for _, ja := range sel.joins {
		bd.rels[ja.tl.pos] = ja.right
	}
	est := 1.0
	for _, e := range lg.groupBy {
		d := 0.0
		if cr, ok := e.(*colRef); ok {
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
		fmt.Fprintf(&b, ", filter %s", condList(sa.filters))
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
		fmt.Fprintf(&b, ", filter %s", condList(ja.filters))
	}
	if len(ja.post) > 0 {
		fmt.Fprintf(&b, ", post %s", condList(ja.post))
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

func groupLabel(s *SelectStmt, cols []string) string {
	if len(s.GroupBy) > 0 {
		return "Aggregate(group by " + exprList(s.GroupBy) + ": " + strings.Join(cols, ", ") + ")"
	}
	return "Aggregate(" + strings.Join(cols, ", ") + ")"
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

func condList(list []cond) string {
	exprs := make([]Expr, len(list))
	for i, c := range list {
		exprs[i] = c.expr
	}
	return exprList(exprs)
}

// renderExplain prints the tree with box-drawing connectors. Every node
// shows its estimate; metered nodes (EXPLAIN ANALYZE) add actual rows
// and cumulative operator time.
func renderExplain(b *strings.Builder, n *explainNode, prefix, childPrefix string) {
	b.WriteString(prefix)
	b.WriteString(n.label)
	fmt.Fprintf(b, " [rows≈%.0f", n.est)
	if n.meter != nil {
		fmt.Fprintf(b, " actual=%d time=%s",
			atomic.LoadInt64(&n.meter.rows), fmtNanos(atomic.LoadInt64(&n.meter.nanos)))
		if batches := atomic.LoadInt64(&n.meter.batches); batches > 0 {
			fmt.Fprintf(b, " batches=%d", batches)
		}
	}
	b.WriteString("]\n")
	for i, c := range n.children {
		last := i == len(n.children)-1
		connector, extend := "├─ ", "│  "
		if last {
			connector, extend = "└─ ", "   "
		}
		renderExplain(b, c, childPrefix+connector, childPrefix+extend)
	}
}
