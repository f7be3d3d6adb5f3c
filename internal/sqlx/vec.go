package sqlx

import (
	"context"
	"io"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/rel"
)

// Batch-at-a-time (vectorized) execution: a tree of pull-based
// operators (scan, join, filter, project, group, order, distinct,
// limit/offset, union concat) exchanging slices of up to vecBatch items
// per pull, so interface dispatch, context checks, and allocations
// amortize over whole batches instead of single rows.
//
// Demand propagation keeps early stopping tight: next(ctx, want)
// returns between 1 and want items. Unconstrained pulls ask for the full
// vecBatch and consumers drain everything they trigger. Under
// LIMIT/OFFSET the limit operator asks for exactly the rows it still
// needs (always < vecBatch): filters and distinct then pull their child
// one row at a time, so the scan stops on the row that satisfies the
// limit, and joins pull one left row at a time with match state buffered
// across calls. Scanned() — the count of stored tuples read — is
// therefore exact for a LIMIT over an un-joined scan on one goroutine;
// see Cursor.Scanned for where joins and parallel morsels read ahead.
//
// One builder: buildSelect decides the tree's shape — union, access
// paths, joins, residual filter, grouping, sort, distinct, limit — for
// execution and EXPLAIN alike. On a traced run it returns an explainNode
// beside every operator it builds (see explain.go), and under EXPLAIN
// ANALYZE each operator is metered by its node, so the plan shown is the
// tree that ran. An untraced open builds no nodes.
//
// Batch memory: everything a batch carries is valid until the next pull
// on the same iterator. Producers carve their batches from recycled
// arenas, and operators that keep data past a pull — ORDER BY's buffer,
// group representatives, new DISTINCT rows, a build-left hash side, IN
// subquery sets — copy exactly what they keep (see arena.go), so a query
// allocates for the rows it keeps, not the rows it scans.

// vecBatch is the batch size — one scan morsel produces one batch.
const vecBatch = morselSize

// vecIter is the pull interface every operator implements. next returns
// 1..want items or io.EOF. The items, and everything they point to —
// environments, tuple slots, projected rows — are valid only until the
// next call on the same iterator; a consumer that keeps any of it copies
// it. Iterators are single-goroutine.
type vecIter interface {
	next(ctx context.Context, want int) ([]item, error)
}

// tickN counts n stored-tuple reads at once, checking ctx with the same
// amortized cadence as tick.
func (rt *run) tickN(ctx context.Context, n int) error {
	atomic.AddInt64(&rt.scanned, int64(n))
	rt.ticks += n
	if rt.ticks >= ctxBatch {
		rt.ticks = 0
		return ctx.Err()
	}
	return nil
}

// openSelect materializes a SELECT's IN subqueries into rt, then builds
// its operator tree: how every execution but EXPLAIN ANALYZE starts.
func openSelect(ctx context.Context, db *rel.Database, lg *logicalSelect, rt *run) ([]string, vecIter, error) {
	if err := rt.materializeAll(ctx, db, lg); err != nil {
		return nil, nil, err
	}
	cols, it, _, err := buildSelect(ctx, db, lg, rt)
	return cols, it, err
}

// buildSelect builds the operator tree for a SELECT, folding in its
// UNION chain: branch iterators are concatenated (and deduplicated unless
// every step is UNION ALL), then the head's ORDER BY/LIMIT/OFFSET apply
// to the combined stream. On a traced run (rt.explain) it also returns
// the root of the plan nodes it built beside the operators. IN subqueries
// must already be materialized into rt (see materializeAll).
func buildSelect(ctx context.Context, db *rel.Database, lg *logicalSelect, rt *run) ([]string, vecIter, *explainNode, error) {
	s := lg.s
	if s.Union == nil {
		return buildSelectOne(ctx, db, lg, rt)
	}
	var iters []vecIter
	var branches []*explainNode // traced runs only
	allMode := true
	for cur := lg; cur != nil; cur = cur.union {
		_, it, node, err := buildSelectOne(ctx, db, cur, rt)
		if err != nil {
			return nil, nil, nil, err
		}
		iters = append(iters, it)
		if rt.explain {
			branches = append(branches, node)
		}
		if cur.s.Union != nil && !cur.s.UnionAll {
			allMode = false
		}
	}
	var it vecIter = &vecConcat{children: iters}
	var node *explainNode
	if rt.explain {
		label, est := "Union", 0.0
		if allMode {
			label = "UnionAll"
		}
		for _, b := range branches {
			est += b.est
		}
		node = rt.node(label, est, branches...)
		it = node.metered(it)
	}
	if !allMode {
		it, node = rt.trace(&vecDistinct{child: it}, node, func(in float64) (string, float64) { return "Distinct", in })
	}
	if len(lg.order) > 0 {
		it, node = rt.trace(&vecOrder{child: it, keys: lg.order, rt: rt}, node,
			func(in float64) (string, float64) { return sortLabel(s.OrderBy), in })
	}
	if s.Limit >= 0 || s.Offset > 0 {
		it, node = rt.trace(&vecLimit{child: it, limit: s.Limit, offset: s.Offset}, node,
			func(in float64) (string, float64) { return limitLabel(s), limitEst(in, s) })
	}
	return lg.cols, it, node, nil
}

// buildSelectOne builds the operator tree for one SELECT without its
// UNION chain, binding the logical plan's access paths against db. When
// the select heads a union, ORDER/LIMIT/OFFSET are applied by
// buildSelect to the combined stream instead.
func buildSelectOne(ctx context.Context, db *rel.Database, lg *logicalSelect, rt *run) ([]string, vecIter, *explainNode, error) {
	s := lg.s
	headOfUnion := s.Union != nil
	// 1. The joined row stream as environments, on the access paths
	// chosen by bindSelect (see access.go), executed on this goroutine or
	// as parallel morsels over the base scan. The residual WHERE conjuncts
	// filter inside the chain, above the joins — also without FROM, where
	// the chain starts from one empty environment.
	sel, err := bindSelect(db, lg)
	if err != nil {
		return nil, nil, nil, err
	}
	it, node, err := buildChain(ctx, sel, lg, rt)
	if err != nil {
		return nil, nil, nil, err
	}
	// 2. Group/aggregate (a pipeline breaker) or streaming projection,
	// then ORDER BY (a breaker), DISTINCT, LIMIT/OFFSET. Grouped rows sort
	// by their output columns; projected ones may sort by any column.
	if lg.grouped {
		it, node = rt.trace(&vecGroup{child: it, lg: lg, rt: rt}, node,
			func(in float64) (string, float64) { return groupLabel(s, lg.cols), groupEst(db, sel, lg, in) })
	} else {
		it, node = rt.trace(&vecProject{child: it, items: lg.items, rt: rt}, node,
			func(in float64) (string, float64) { return "Project(" + strings.Join(lg.cols, ", ") + ")", in })
	}
	if !headOfUnion && len(lg.order) > 0 {
		it, node = rt.trace(&vecOrder{child: it, keys: lg.order, rt: rt}, node,
			func(in float64) (string, float64) { return sortLabel(s.OrderBy), in })
	}
	if s.Distinct {
		it, node = rt.trace(&vecDistinct{child: it}, node, func(in float64) (string, float64) { return "Distinct", in })
	}
	if !headOfUnion && (s.Limit >= 0 || s.Offset > 0) {
		it, node = rt.trace(&vecLimit{child: it, limit: s.Limit, offset: s.Offset}, node,
			func(in float64) (string, float64) { return limitLabel(s), limitEst(in, s) })
	}
	return lg.cols, it, node, nil
}

// chainNodes returns the plan nodes of the chain vecOpenChain builds, one
// per operator in its build order: the base access path (or, without
// FROM, the one-row Result), each join, then the residual filter. They
// are made once per SELECT — nil for an untraced run — so parallel
// morsel chains share their meters.
func chainNodes(sel *selectAccess, lg *logicalSelect, rt *run) []*explainNode {
	if !rt.explain {
		return nil
	}
	var nodes []*explainNode
	add := func(label string, est float64) {
		n := rt.node(label, est)
		if len(nodes) > 0 {
			n.children = []*explainNode{nodes[len(nodes)-1]}
		}
		nodes = append(nodes, n)
	}
	if sel.scan == nil {
		add("Result(1 row)", 1)
	} else {
		add(scanLabel(sel.scan), sel.scan.est)
		for _, ja := range sel.joins {
			add(joinLabel(ja), ja.est)
		}
	}
	if len(lg.residual) > 0 {
		add("Filter("+condList(lg.residual)+")", filterEst(nodes[len(nodes)-1].est, len(lg.residual)))
	}
	return nodes
}

// vecOpenChain builds the scan→joins→residual part of one SELECT over
// the base-scan tuple range [lo, hi), or over one empty environment
// without FROM. nodes are the chain's plan nodes from chainNodes (nil
// when untraced); under EXPLAIN ANALYZE every morsel chain is metered by
// the same nodes, so counters aggregate across morsels.
func vecOpenChain(sel *selectAccess, lg *logicalSelect, rt *run, nodes []*explainNode, lo, hi int) vecIter {
	var it vecIter
	width := len(lg.tables)
	if sel.scan == nil {
		it = &vecSingleton{rt: rt}
	} else {
		it = vecOpenScan(sel.scan, rt, lo, hi, width)
	}
	it = meterAt(nodes, 0, it)
	for i, ja := range sel.joins {
		it = vecOpenJoin(it, ja, rt, width)
		if len(ja.post) > 0 {
			it = &vecFilter{child: it, conds: ja.post}
		}
		it = meterAt(nodes, 1+i, it)
	}
	if len(lg.residual) > 0 {
		it = &vecFilter{child: it, conds: lg.residual}
		it = meterAt(nodes, 1+len(sel.joins), it)
	}
	return it
}

// meterAt meters chain operator it by nodes[i]; a no-op when untraced.
func meterAt(nodes []*explainNode, i int, it vecIter) vecIter {
	if nodes == nil {
		return it
	}
	return nodes[i].metered(it)
}

// vecSingleton yields one empty environment (SELECT without FROM).
type vecSingleton struct {
	rt   *run
	done bool
	out  [1]item
}

func (s *vecSingleton) next(ctx context.Context, want int) ([]item, error) {
	if s.done {
		return nil, io.EOF
	}
	s.done = true
	s.out[0] = item{env: &env{rt: s.rt}}
	return s.out[:1], nil
}

// vecScan yields batches of environments over the base relation: its
// tuples [pos, end) — a full scan, or one morsel under parallel
// execution — or, for the index access path, those at positions[pos:end],
// so stored-tuple reads (and thus Scanned) are proportional to the
// result size. Every batch is carved from the scan's arena.
type vecScan struct {
	rel       *rel.Relation
	tab       int // the relation's FROM position
	width     int // FROM tables per environment
	positions []int
	rt        *run
	pos       int
	end       int
	a         *arena
}

func (s *vecScan) next(ctx context.Context, want int) ([]item, error) {
	s.a = s.rt.batch(s.a)
	n := s.end - s.pos
	if n <= 0 {
		return nil, io.EOF
	}
	if n > want {
		n = want
	}
	if err := s.rt.tickN(ctx, n); err != nil {
		return nil, err
	}
	out := s.a.envItems(s.rt, n, s.width)
	for i := range out {
		p := s.pos + i
		if s.positions != nil {
			p = s.positions[p]
		}
		out[i].env.tuples[s.tab] = s.rel.Tuples[p]
	}
	s.pos += n
	return out, nil
}

// vecOpenScan builds the operator for a bound table access path: an
// index probe or a sequential scan over [lo, hi), with the remaining
// pushed-down filters applied above it. Index probes ignore the range
// (they never run partitioned).
func vecOpenScan(sa *scanAccess, rt *run, lo, hi, width int) vecIter {
	s := &vecScan{rel: sa.r, tab: sa.tl.pos, width: width, rt: rt, pos: lo, end: hi}
	if sa.idx != nil {
		s.positions = sa.idx.Lookup(sa.eq.val)
		s.pos, s.end = 0, len(s.positions)
	}
	if len(sa.filters) > 0 {
		return &vecFilter{child: s, conds: sa.filters}
	}
	return s
}

// vecFilter keeps items on which every conjunct holds (allHold),
// compacting the child's batch in place. It loops over all-rejected
// chunks so a successful pull always returns at least one item.
type vecFilter struct {
	child vecIter
	conds []cond
}

func (f *vecFilter) next(ctx context.Context, want int) ([]item, error) {
	// Constrained pull (a LIMIT upstream): read one row at a time so the
	// scan stops on the row that satisfies the limit — a larger chunk
	// could read past the final qualifying row.
	if want < vecBatch {
		want = 1
	}
	for {
		items, err := f.child.next(ctx, want)
		if err != nil {
			return nil, err
		}
		k := 0
		for i := range items {
			ok, err := allHold(f.conds, items[i].env)
			if err != nil {
				return nil, err
			}
			if ok {
				items[k] = items[i]
				k++
			}
		}
		if k > 0 {
			return items[:k], nil
		}
	}
}

// vecProject evaluates the select items per batch, carving output rows
// from its arena.
type vecProject struct {
	child vecIter
	items []scalar
	rt    *run
	a     *arena
}

func (p *vecProject) next(ctx context.Context, want int) ([]item, error) {
	p.a = p.rt.batch(p.a)
	items, err := p.child.next(ctx, want)
	if err != nil {
		return nil, err
	}
	w := len(p.items)
	var slab []rel.Value
	p.a.vals, slab = carve(p.a.vals, len(items)*w)
	for i := range items {
		row := slab[i*w : (i+1)*w : (i+1)*w]
		for j, item := range p.items {
			v, err := item(items[i].env)
			if err != nil {
				return nil, err
			}
			row[j] = v
		}
		items[i].row = row
	}
	return items, nil
}

// vecDistinct drops rows already seen, compacting in place like
// vecFilter. The tuple set keeps a copy of each new row.
type vecDistinct struct {
	child vecIter
	seen  tupleSet
}

func (d *vecDistinct) next(ctx context.Context, want int) ([]item, error) {
	// Constrained pull: row-at-a-time (see vecFilter).
	if want < vecBatch {
		want = 1
	}
	for {
		items, err := d.child.next(ctx, want)
		if err != nil {
			return nil, err
		}
		k := 0
		for i := range items {
			if d.seen.insert(items[i].row) {
				items[k] = items[i]
				k++
			}
		}
		if k > 0 {
			return items[:k], nil
		}
	}
}

// vecLimit applies OFFSET then LIMIT, returning io.EOF as soon as the
// limit is satisfied. It caps want at the rows still needed — and always
// below vecBatch — so the operators below see a constrained pull and stop
// reading stored tuples with the last row asked for.
type vecLimit struct {
	child   vecIter
	limit   int // -1 = no limit
	offset  int
	skipped int
	emitted int
}

func (l *vecLimit) next(ctx context.Context, want int) ([]item, error) {
	for l.skipped < l.offset {
		w := l.offset - l.skipped
		if w >= vecBatch {
			w = vecBatch - 1
		}
		items, err := l.child.next(ctx, w)
		if err != nil {
			return nil, err
		}
		l.skipped += len(items)
	}
	if l.limit >= 0 {
		rem := l.limit - l.emitted
		if rem <= 0 {
			return nil, io.EOF
		}
		if want > rem {
			want = rem
		}
		if want >= vecBatch {
			// Never pass an unconstrained want below a live LIMIT: the
			// child must see the pull as constrained (want < vecBatch)
			// and read row-at-a-time.
			want = vecBatch - 1
		}
	}
	items, err := l.child.next(ctx, want)
	if err != nil {
		return nil, err
	}
	l.emitted += len(items)
	return items, nil
}

// vecConcat chains branch iterators in order (UNION ALL shape); later
// children are not pulled until earlier ones are exhausted.
type vecConcat struct {
	children []vecIter
	pos      int
}

func (c *vecConcat) next(ctx context.Context, want int) ([]item, error) {
	for c.pos < len(c.children) {
		items, err := c.children[c.pos].next(ctx, want)
		if err == io.EOF {
			c.pos++
			continue
		}
		return items, err
	}
	return nil, io.EOF
}

// vecOrder is the ORDER BY pipeline breaker. A key resolved to an output
// column reads the row; any other (non-grouped selects only) evaluates
// over the joined row, so they can order by columns they do not
// project. Keys are evaluated once per row as its batch arrives, and the
// buffer keeps a copy of each row and its keys. A key-evaluation error
// surfaces once the input is drained, and only for two or more rows:
// single-row inputs need no comparison.
type vecOrder struct {
	child vecIter
	keys  []orderKey
	rt    *run

	buf    []sortedItem
	vals   kept[rel.Value] // the buffered rows and keys
	pos    int
	filled bool
	a      *arena
}

type sortedItem struct {
	row rel.Tuple
	key []rel.Value
}

func (o *vecOrder) fill(ctx context.Context) error {
	var keyErr error
	for {
		items, err := o.child.next(ctx, vecBatch)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		for _, it := range items {
			if keyErr != nil {
				o.buf = append(o.buf, sortedItem{})
				continue
			}
			key := o.vals.alloc(len(o.keys))
			for j, k := range o.keys {
				if k.pos >= 0 {
					key[j] = it.row[k.pos]
					continue
				}
				if key[j], keyErr = k.val(it.env); keyErr != nil {
					break
				}
			}
			o.buf = append(o.buf, sortedItem{row: o.vals.copy(it.row), key: key})
		}
	}
	if len(o.buf) < 2 {
		return nil // zero comparisons: a key error does not surface
	}
	if keyErr != nil {
		return keyErr
	}
	sort.SliceStable(o.buf, func(a, b int) bool {
		ka, kb := o.buf[a].key, o.buf[b].key
		for j, k := range o.keys {
			if c := ka[j].Compare(kb[j]); c != 0 {
				if k.desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	return nil
}

func (o *vecOrder) next(ctx context.Context, want int) ([]item, error) {
	o.a = o.rt.batch(o.a)
	if !o.filled {
		if err := o.fill(ctx); err != nil {
			return nil, err
		}
		o.filled = true
	}
	n := len(o.buf) - o.pos
	if n <= 0 {
		return nil, io.EOF
	}
	if n > want {
		n = want
	}
	var out []item
	o.a.items, out = carve(o.a.items, n)
	for i := range out {
		out[i].row = o.buf[o.pos+i].row
	}
	o.pos += n
	return out, nil
}
