package aladin

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/rel"
	"repro/internal/sqlx"
)

// Rows is a streaming SQL result cursor, shaped like database/sql's Rows:
//
//	rows, err := db.QueryRows(ctx, "SELECT accession, mass FROM swissprot_protein LIMIT 10")
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//		var acc string
//		var mass float64
//		if err := rows.Scan(&acc, &mass); err != nil { ... }
//	}
//	if err := rows.Err(); err != nil { ... }
//
// Rows are computed on demand: a LIMIT query stops reading the warehouse
// as soon as the limit is satisfied, and abandoning the cursor after k
// rows has paid only for those k rows (pipeline breakers — ORDER BY,
// aggregation — drain their input on the first Next).
//
// The cursor runs over an immutable snapshot of the warehouse taken when
// QueryRows returned: the database's read lock is NOT held while
// iterating, and the rows stay valid and consistent even if a concurrent
// AddSource commits mid-iteration — the cursor simply keeps seeing the
// pre-add state. A Rows is not safe for concurrent use by multiple
// goroutines; open one per goroutine.
type Rows struct {
	ctx    context.Context
	cur    *sqlx.Cursor
	sid    SnapshotID
	row    rel.Tuple
	err    error
	closed bool
}

// SnapshotID identifies the immutable warehouse snapshot this cursor
// iterates — captured under the same lock as the snapshot itself, so it
// names exactly the state the rows come from. The HTTP layer tags
// responses with it and binds pagination cursors to it.
func (r *Rows) SnapshotID() SnapshotID { return r.sid }

// Columns returns the output column names.
func (r *Rows) Columns() []string { return r.cur.Columns() }

// Next advances to the next row, reporting false at the end of the
// result or on error (distinguish with Err). The context passed to
// QueryRows governs the iteration: cancellation aborts a scan promptly
// and surfaces as ErrCanceled from Err.
func (r *Rows) Next() bool {
	if r.closed || r.err != nil {
		return false
	}
	row, err := r.cur.Next(r.ctx)
	r.row = nil // the cursor's previous row is recycled
	if err == io.EOF {
		r.closed = true
		return false
	}
	if err != nil {
		r.err, r.closed = execErr(err), true
		return false
	}
	r.row = row
	return true
}

// Scan copies the current row into dest, one target per column, in
// column order. Supported targets: *string, *int64, *int, *float64,
// *bool, and *any (which receives nil for NULL, otherwise int64,
// float64, bool, or string by the value's kind). NULLs scan as zero
// values into typed targets.
func (r *Rows) Scan(dest ...any) error {
	if r.row == nil {
		return errors.New("aladin: Scan called without a successful Next")
	}
	if len(dest) != len(r.row) {
		return fmt.Errorf("aladin: Scan got %d targets for %d columns", len(dest), len(r.row))
	}
	for i, d := range dest {
		v := r.row[i]
		switch t := d.(type) {
		case *string:
			*t = v.AsString()
		case *int64:
			n, ok := v.AsInt()
			if !ok && !v.IsNull() {
				return fmt.Errorf("aladin: column %d: cannot scan %s into *int64", i, v.Kind())
			}
			*t = n
		case *int:
			n, ok := v.AsInt()
			if !ok && !v.IsNull() {
				return fmt.Errorf("aladin: column %d: cannot scan %s into *int", i, v.Kind())
			}
			*t = int(n)
		case *float64:
			f, ok := v.AsFloat()
			if !ok && !v.IsNull() {
				return fmt.Errorf("aladin: column %d: cannot scan %s into *float64", i, v.Kind())
			}
			*t = f
		case *bool:
			b, ok := v.AsBool()
			if !ok && !v.IsNull() {
				return fmt.Errorf("aladin: column %d: cannot scan %s into *bool", i, v.Kind())
			}
			*t = b
		case *any:
			switch v.Kind() {
			case rel.KindNull:
				*t = nil
			case rel.KindInt:
				n, _ := v.AsInt()
				*t = n
			case rel.KindFloat:
				f, _ := v.AsFloat()
				*t = f
			case rel.KindBool:
				b, _ := v.AsBool()
				*t = b
			default:
				*t = v.AsString()
			}
		default:
			return fmt.Errorf("aladin: column %d: unsupported Scan target %T", i, d)
		}
	}
	return nil
}

// RowStrings returns the current row rendered as display strings (the
// form the CLI and HTTP server emit): NULL renders as "", numbers in
// their SQL text form. Valid after a successful Next; the slice is
// freshly allocated and owned by the caller.
func (r *Rows) RowStrings() []string {
	out := make([]string, len(r.row))
	for i, v := range r.row {
		out[i] = v.AsString()
	}
	return out
}

// Err returns the error that terminated iteration, nil after a clean end
// of result.
func (r *Rows) Err() error { return r.err }

// Close releases the cursor; subsequent Next calls report false. Close is
// idempotent and safe to defer alongside explicit draining.
func (r *Rows) Close() error {
	r.closed, r.row = true, nil
	return r.cur.Close()
}

// Scanned reports how many stored warehouse tuples the query has read so
// far — a diagnostic probe making early termination observable: a
// LIMIT 10 scan over a million-row relation reports ~10, not a million.
func (r *Rows) Scanned() int64 { return r.cur.Scanned() }

// QueryRows runs a SQL SELECT over the integrated warehouse and returns
// a streaming cursor. Relations are addressable as "<source>_<relation>",
// e.g. "swissprot_protein". The read lock is held only while taking a
// warehouse snapshot; iteration runs lock-free against that snapshot (see
// Rows). Only SELECT statements are accepted — the query access mode is
// read-only; everything else returns ErrBadQuery.
//
// Every name resolves before the cursor is returned: an unknown or
// ambiguous one is ErrBadQuery here, whatever the data. With
// WithPlanCache, prepared plans are reused across calls by SQL text.
// Errors: ErrBadQuery, ErrCanceled, ErrClosed.
func (d *DB) QueryRows(ctx context.Context, sql string) (*Rows, error) {
	rows, _, err := d.queryRows(ctx, sql, false)
	return rows, err
}

// QueryRowsExplain is QueryRows plus the access plan, bound to the SAME
// warehouse snapshot the returned cursor iterates — unlike separate
// Explain and QueryRows calls, which each take their own snapshot and
// can straddle an AddSource commit, so the plan would not describe the
// rows. Errors: ErrBadQuery, ErrCanceled, ErrClosed.
func (d *DB) QueryRowsExplain(ctx context.Context, sql string) (*Rows, string, error) {
	return d.queryRows(ctx, sql, true)
}

// snapshotPlan pins a warehouse snapshot through the read door —
// capturing the snapshot ID in the same pass, so the ID names exactly
// that snapshot — and resolves sql to a plan (via the cache when
// configured) after the lock is released.
func (d *DB) snapshotPlan(ctx context.Context, sql string) (snap *rel.Database, plan *sqlx.Plan, sid SnapshotID, err error) {
	if err = d.read(ctx, func(sys *core.System) error {
		snap, sid = sys.WarehouseSnapshot(), snapshotID(sys)
		return nil
	}); err != nil {
		return nil, nil, SnapshotID{}, err
	}
	if plan, err = d.plan(snap, sql); err != nil {
		return nil, nil, SnapshotID{}, fmt.Errorf("%w: %w", ErrBadQuery, err)
	}
	return snap, plan, sid, nil
}

// execErr maps an error from running a plan: a context error becomes
// ErrCanceled, any other ErrBadQuery.
func execErr(err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return fmt.Errorf("%w: %w", ErrBadQuery, err)
}

func (d *DB) queryRows(ctx context.Context, sql string, explain bool) (*Rows, string, error) {
	snap, plan, sid, err := d.snapshotPlan(ctx, sql)
	if err != nil {
		return nil, "", err
	}
	planText := ""
	if explain {
		if planText, err = plan.Explain(snap); err != nil {
			return nil, "", fmt.Errorf("%w: %w", ErrBadQuery, err)
		}
	}
	cur, err := plan.OpenParallel(ctx, snap, d.workers)
	if err != nil {
		return nil, "", execErr(err)
	}
	return &Rows{ctx: ctx, cur: cur, sid: sid}, planText, nil
}

// Explain renders the access plan a query would execute right now,
// without running it: the operator tree with the chosen access path
// (IndexScan, Scan, IndexJoin, HashJoin with build side, ...) and
// estimated cardinality of every scan and join node. Access paths bind
// to the current warehouse snapshot, so the same SQL may explain
// differently after an AddSource commit publishes new indexes.
// Errors: ErrBadQuery, ErrCanceled, ErrClosed.
func (d *DB) Explain(ctx context.Context, sql string) (string, error) {
	snap, plan, _, err := d.snapshotPlan(ctx, sql)
	if err != nil {
		return "", err
	}
	text, err := plan.Explain(snap)
	if err != nil {
		return "", fmt.Errorf("%w: %w", ErrBadQuery, err)
	}
	return text, nil
}

// ExplainAnalyze executes the query and renders its operator tree
// annotated with both estimated and actual rows (plus cumulative time)
// per operator, and a summary line with total rows, wall time and
// tuples scanned. Execution uses the same parallelism degree as
// QueryRows (WithWorkers), so the plan shows the Gather exchange when
// morsel parallelism actually kicked in. The query's rows are fully
// computed and discarded — use it for tuning, not for fetching results.
// Errors: ErrBadQuery, ErrCanceled, ErrClosed.
func (d *DB) ExplainAnalyze(ctx context.Context, sql string) (string, error) {
	snap, plan, _, err := d.snapshotPlan(ctx, sql)
	if err != nil {
		return "", err
	}
	text, err := plan.ExplainAnalyze(ctx, snap, d.workers)
	if err != nil {
		return "", execErr(err)
	}
	return text, nil
}

// plan resolves sql to a Plan, via the LRU cache when configured. Plans
// are immutable, resolve names against the snapshot's schemas and bind
// to data only at open time, so one cached plan serves successive
// warehouse snapshots.
func (d *DB) plan(snap *rel.Database, sql string) (*sqlx.Plan, error) {
	if d.plans == nil {
		return sqlx.Prepare(snap, sql)
	}
	if p := d.plans.get(sql); p != nil {
		return p, nil
	}
	p, err := sqlx.Prepare(snap, sql)
	if err != nil {
		return nil, err
	}
	d.plans.put(sql, p)
	return p, nil
}

// planCache is a small mutex-guarded LRU of prepared plans keyed by SQL
// text. Parse cost dominates short queries (see BenchmarkSQLParse), so
// hot dashboards issuing the same statements skip it entirely.
type planCache struct {
	mu  sync.Mutex
	cap int
	m   map[string]*list.Element
	lru *list.List // front = most recently used
}

type planEntry struct {
	sql  string
	plan *sqlx.Plan
}

func newPlanCache(n int) *planCache {
	return &planCache{cap: n, m: make(map[string]*list.Element, n), lru: list.New()}
}

func (c *planCache) get(sql string) *sqlx.Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[sql]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	return el.Value.(*planEntry).plan
}

func (c *planCache) put(sql string, p *sqlx.Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[sql]; ok {
		c.lru.MoveToFront(el)
		el.Value.(*planEntry).plan = p
		return
	}
	c.m[sql] = c.lru.PushFront(&planEntry{sql: sql, plan: p})
	for c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.m, oldest.Value.(*planEntry).sql)
	}
}

// len reports the number of cached plans (for tests).
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
