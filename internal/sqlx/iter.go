package sqlx

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/rel"
)

// This file holds the per-execution state shared by every operator of
// one open cursor, and the helpers the operators in vec*.go share. Rows
// are produced on demand, so a LIMIT query stops reading its inputs as
// soon as the limit is satisfied, and cancellation is checked every
// batch of stored-tuple reads. Exec is a collect-all wrapper over the
// same pipeline (see exec.go).

// ctxBatch is how many stored-tuple reads happen between context checks.
const ctxBatch = 64

// run carries the per-execution state shared by every operator of one
// open cursor: the scanned-tuple probe, the cancellation tick counter,
// and the materialized results of uncorrelated IN subqueries (keyed by
// AST node so a shared, cached Plan is never mutated). Parallel
// execution gives each morsel a private run sharing the parent's subs;
// scanned is updated atomically so morsel workers can aggregate into
// the parent while the consumer reads it.
type run struct {
	scanned int64 // atomic
	ticks   int
	subs    map[*InExpr]*inSet
	// workers is the parallelism degree for eligible scan chains
	// (0 or 1 = serial).
	workers int
	// explain makes buildSelect return the plan node of every operator
	// it builds (EXPLAIN); analyze also meters every operator by its node
	// (EXPLAIN ANALYZE). Subqueries materialize before either is set, so
	// they run untraced.
	explain, analyze bool
	// closers run when the cursor is closed or exhausted — cancel
	// functions that stop parallel producers and hand their buffered
	// arenas back.
	closers []func()
	// arenas are the operators' batch arenas, pooled again at close.
	// morsel marks a morsel chain's run, whose arenas are never reset
	// but handed to its exchange slot (see arena.go).
	arenas []*arena
	morsel bool
}

func newRun() *run {
	return &run{subs: make(map[*InExpr]*inSet)}
}

// tick counts one stored-tuple read and checks ctx every ctxBatch reads.
func (rt *run) tick(ctx context.Context) error {
	atomic.AddInt64(&rt.scanned, 1)
	rt.ticks++
	if rt.ticks >= ctxBatch {
		rt.ticks = 0
		return ctx.Err()
	}
	return nil
}

// close runs the registered closers and returns the run's arenas to
// the pool; what the cursor's batches carried is invalid after it.
// Idempotent.
func (rt *run) close() {
	for _, f := range rt.closers {
		f()
	}
	rt.closers = nil
	rt.releaseArenas()
}

// item is one element flowing between operators: an environment (a
// tuple per FROM table) before projection, a projected output row after.
// The order operator keeps both so ORDER BY can reference non-projected
// columns.
type item struct {
	env *env
	row rel.Tuple
}

// materializeAll runs the uncorrelated IN (SELECT ...) subqueries of a
// SELECT and its UNION chain into the run, before the build.
func (rt *run) materializeAll(ctx context.Context, db *rel.Database, lg *logicalSelect) error {
	for ; lg != nil; lg = lg.union {
		if err := rt.materialize(ctx, db, lg.subs); err != nil {
			return err
		}
	}
	return nil
}

// materialize executes bound IN (SELECT ...) subqueries and stores their
// value sets in the run, keyed by node: a cached plan's nodes are shared,
// and never written.
func (rt *run) materialize(ctx context.Context, db *rel.Database, subs []*InExpr) error {
	for _, x := range subs {
		_, it, err := openSelect(ctx, db, x.lg, rt)
		if err != nil {
			return fmt.Errorf("sqlx: IN subquery: %w", err)
		}
		var vals []rel.Value
		for {
			items, err := it.next(ctx, vecBatch)
			if err == io.EOF {
				break
			}
			if err != nil {
				return fmt.Errorf("sqlx: IN subquery: %w", err)
			}
			for _, i := range items {
				vals = append(vals, i.row[0])
			}
		}
		// The set holds copies of the values; the subquery's batches are
		// done with.
		rt.releaseArenas()
		rt.subs[x] = newInSet(vals)
	}
	return nil
}

// rightOK evaluates ja's pushed-down filters against one right tuple in
// isolation. The filters reference ja's table alone, so scratch (from
// newScratch) holds nothing else.
func (ja *joinAccess) rightOK(scratch *env, t rel.Tuple) (bool, error) {
	scratch.tuples[ja.tl.pos] = t
	for i := range ja.filters {
		if t, err := ja.filters[i].test(scratch); t != triTrue || err != nil {
			return false, err
		}
	}
	return true, nil
}

func (ja *joinAccess) newScratch(rt *run) *env {
	return &env{rt: rt, tuples: make([]rel.Tuple, ja.tl.pos+1)}
}
