package sqlx

import (
	"context"
	"io"

	"repro/internal/rel"
)

// Batch joins. Output environments are carved from the join's arena
// (see arena.go), which grows with what a call emits and is reused by
// the next. Under a constrained pull (want < vecBatch, i.e. a LIMIT
// upstream) the join pulls left rows one at a time and buffers pending
// match state across calls, so it reads no left row the LIMIT does not
// need.

// vecOpenJoin builds the operator for a bound join access path.
func vecOpenJoin(child vecIter, ja *joinAccess, rt *run, width int) vecIter {
	if ja.strategy == joinHashBuildLeft {
		return &vecHashLeftJoin{child: child, ja: ja, rt: rt, chain: -1, scratch: ja.newScratch(rt)}
	}
	j := &vecJoin{
		child: child, ja: ja, rt: rt,
		nullTuple: make(rel.Tuple, ja.right.Schema.Len()),
		chain:     -1, scratch: ja.newScratch(rt),
	}
	if ja.strategy == joinNestedLoop {
		j.conds = append(append([]cond{}, ja.filters...), ja.onConds...)
		j.cand = env{rt: rt, tuples: make([]rel.Tuple, width)}
	}
	return j
}

// vecJoin extends each child environment with matching tuples of the
// right relation, on the access path chosen at bind time: a probe of the
// relation's persistent hash index, a lazily built per-query hash over
// the (pre-filtered) right side, a nested loop, or a cross product, with
// LEFT JOIN null extension. The build-left hash strategy lives in
// vecHashLeftJoin.
type vecJoin struct {
	child   vecIter
	ja      *joinAccess
	rt      *run
	scratch *env // for the right-side filters

	conds []cond // nested-loop predicate: the right-side filters, then ON
	cand  env    // nested-loop candidate, emitted if conds hold

	table   *joinTable  // build-right hash table, nil until first use
	cross   []rel.Tuple // cross-join right side, valid once crossed
	crossed bool

	nullTuple rel.Tuple

	// Pending left rows from the child's last batch.
	leftBuf []item
	li      int
	done    bool
	err     error

	// Match state for the current left row, resumable across calls.
	cur     *env
	matches []rel.Tuple // index-probe / cross modes
	mi      int
	chain   int32 // build-right hash chain cursor, -1 = none
	rpos    int   // nested-loop right scan position
	matched bool

	a *arena
}

// buildJoinTable hashes the (pre-filtered) right relation of a
// joinHashBuildRight step, reading every right tuple once.
func buildJoinTable(ctx context.Context, ja *joinAccess, rt *run) (*joinTable, error) {
	tbl := &joinTable{}
	scratch := ja.newScratch(rt)
	for _, t := range ja.right.Tuples {
		if err := rt.tick(ctx); err != nil {
			return nil, err
		}
		ok, err := ja.rightOK(scratch, t)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		v := t[ja.rightIdx]
		if v.IsNull() {
			continue
		}
		tbl.insert(v, t)
	}
	return tbl, nil
}

// buildCrossSide materializes the right side of a joinCrossSeq step.
// Without pushed filters the relation's tuples are shared directly and
// nothing is read.
func buildCrossSide(ctx context.Context, ja *joinAccess, rt *run) ([]rel.Tuple, error) {
	if len(ja.filters) == 0 {
		return ja.right.Tuples, nil
	}
	var out []rel.Tuple
	scratch := ja.newScratch(rt)
	for _, t := range ja.right.Tuples {
		if err := rt.tick(ctx); err != nil {
			return nil, err
		}
		ok, err := ja.rightOK(scratch, t)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, t)
		}
	}
	return out, nil
}

func (j *vecJoin) probeIndex(ctx context.Context) error {
	j.matches = j.matches[:0]
	lv := j.cur.get(j.ja.leftCol)
	if lv.IsNull() {
		return nil // a NULL key matches nothing, as on the hash path
	}
	for _, pos := range j.ja.idx.Lookup(lv) {
		if err := j.rt.tick(ctx); err != nil {
			return err
		}
		t := j.ja.right.Tuples[pos]
		ok, err := j.ja.rightOK(j.scratch, t)
		if err != nil {
			return err
		}
		if ok {
			j.matches = append(j.matches, t)
		}
	}
	return nil
}

// fail records a terminal error; buffered output is flushed first and
// the error surfaces on the following call.
func (j *vecJoin) fail(err error) ([]item, error) {
	j.cur, j.done, j.err = nil, true, err
	if len(j.a.items) > 0 {
		return j.a.items, nil
	}
	return nil, err
}

func (j *vecJoin) next(ctx context.Context, want int) ([]item, error) {
	right := j.ja.right
	j.a = j.rt.batch(j.a)
	a := j.a
	leftWant := vecBatch
	if want < vecBatch {
		// A constrained pull: read left rows one at a time so the scan
		// stops with the left row that satisfies the LIMIT.
		leftWant = 1
	}
	for {
		if j.cur == nil {
			if j.li >= len(j.leftBuf) {
				if j.done {
					if len(a.items) > 0 {
						return a.items, nil
					}
					if j.err != nil {
						return nil, j.err
					}
					return nil, io.EOF
				}
				items, err := j.child.next(ctx, leftWant)
				if err != nil {
					j.done = true
					if err != io.EOF {
						j.err = err
					}
					continue
				}
				j.leftBuf, j.li = items, 0
			}
			it := j.leftBuf[j.li]
			j.li++
			j.cur, j.matched, j.mi, j.rpos, j.chain = it.env, false, 0, 0, -1
			switch j.ja.strategy {
			case joinCrossSeq:
				if !j.crossed {
					// Parallel execution pre-filters the right side once and
					// shares it across morsels (ja.precross).
					j.cross = j.ja.precross
					if j.cross == nil {
						var err error
						if j.cross, err = buildCrossSide(ctx, j.ja, j.rt); err != nil {
							return j.fail(err)
						}
					}
					j.crossed = true
				}
				j.matches, j.mi = j.cross, 0
			case joinIndexProbe:
				if err := j.probeIndex(ctx); err != nil {
					return j.fail(err)
				}
			case joinHashBuildRight:
				if j.table == nil {
					// Parallel execution builds the table once and shares it
					// across morsels (ja.prevec).
					j.table = j.ja.prevec
				}
				if j.table == nil {
					var err error
					if j.table, err = buildJoinTable(ctx, j.ja, j.rt); err != nil {
						return j.fail(err)
					}
				}
				if lv := j.cur.get(j.ja.leftCol); !lv.IsNull() {
					j.chain = j.table.probe(lv)
				}
			}
		}
		switch {
		case j.ja.strategy == joinNestedLoop:
			for j.rpos < len(right.Tuples) {
				if len(a.items) == want {
					return a.items, nil
				}
				if err := j.rt.tick(ctx); err != nil {
					return j.fail(err)
				}
				t := right.Tuples[j.rpos]
				j.rpos++
				copy(j.cand.tuples, j.cur.tuples)
				j.cand.tuples[j.ja.tl.pos] = t
				ok, err := allHold(j.conds, &j.cand)
				if err != nil {
					return j.fail(err)
				}
				if ok {
					j.matched = true
					a.emit(j.rt, j.cur.tuples, j.ja.tl.pos, t)
				}
			}
		case j.ja.strategy == joinHashBuildRight:
			for j.chain >= 0 {
				if len(a.items) == want {
					return a.items, nil
				}
				t := j.table.rows[j.chain]
				j.chain = j.table.next[j.chain]
				j.matched = true
				a.emit(j.rt, j.cur.tuples, j.ja.tl.pos, t)
			}
		default:
			for j.mi < len(j.matches) {
				if len(a.items) == want {
					return a.items, nil
				}
				t := j.matches[j.mi]
				j.mi++
				j.matched = true
				a.emit(j.rt, j.cur.tuples, j.ja.tl.pos, t)
			}
		}
		if !j.matched && j.ja.kind == JoinLeft {
			if len(a.items) == want {
				// No room: keep cur so the next call re-enters here and
				// emits the null-extended row.
				return a.items, nil
			}
			a.emit(j.rt, j.cur.tuples, j.ja.tl.pos, j.nullTuple)
		}
		j.cur = nil
		if len(a.items) == want {
			return a.items, nil
		}
	}
}

// vecHashLeftJoin is the build-side-swapped hash join: when neither
// join column has a persistent index and the left input is estimated
// smaller than the right relation, the left environments are drained
// into the hash table and the right relation is streamed through it —
// the classic smaller-side build. Output order is right-major (SQL
// leaves join order unspecified). Inner joins only: outer joins keep the
// right build so null extension follows left order. A pull returns as
// soon as its batch is full, so under LIMIT it reads no right tuple past
// the one that produced the last row emitted.
type vecHashLeftJoin struct {
	child   vecIter
	ja      *joinAccess
	rt      *run
	scratch *env // for the right-side filters

	built bool
	table envTable

	rpos     int
	curTuple rel.Tuple
	chain    int32
	err      error

	a *arena
}

func (j *vecHashLeftJoin) build(ctx context.Context) error {
	for {
		items, err := j.child.next(ctx, vecBatch)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		for _, it := range items {
			// NULL keys match nothing, as in probe mode.
			lv := it.env.get(j.ja.leftCol)
			if lv.IsNull() {
				continue
			}
			j.table.insert(lv, it.env)
		}
	}
	j.built = true
	return nil
}

func (j *vecHashLeftJoin) next(ctx context.Context, want int) ([]item, error) {
	if j.err != nil {
		return nil, j.err
	}
	if !j.built {
		if err := j.build(ctx); err != nil {
			return nil, err
		}
	}
	right := j.ja.right
	j.a = j.rt.batch(j.a)
	a := j.a
	for {
		for j.chain >= 0 && len(a.items) < want {
			left := j.table.rows[j.chain]
			j.chain = j.table.next[j.chain]
			a.emit(j.rt, left, j.ja.tl.pos, j.curTuple)
		}
		if len(a.items) == want {
			return a.items, nil
		}
		if j.rpos >= len(right.Tuples) {
			if len(a.items) > 0 {
				return a.items, nil
			}
			return nil, io.EOF
		}
		if err := j.rt.tick(ctx); err != nil {
			j.err = err
			if len(a.items) > 0 {
				return a.items, nil
			}
			return nil, err
		}
		t := right.Tuples[j.rpos]
		j.rpos++
		ok, err := j.ja.rightOK(j.scratch, t)
		if err != nil {
			j.err = err
			if len(a.items) > 0 {
				return a.items, nil
			}
			return nil, err
		}
		if !ok {
			continue
		}
		v := t[j.ja.rightIdx]
		if v.IsNull() {
			continue
		}
		j.curTuple, j.chain = t, j.table.probe(v)
	}
}
