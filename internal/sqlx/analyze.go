package sqlx

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/rel"
)

// EXPLAIN ANALYZE support: when a run carries a planMeters, every
// operator of the executed tree is wrapped in a vecMeter counting
// emitted rows, batches and cumulative time (child time included, as in
// PostgreSQL). Parallel morsel chains share the same meter pointers, so
// counts aggregate across workers; times then sum worker CPU time and
// can exceed wall clock.

// opMeter accumulates one operator's actual row count, nanoseconds, and
// the number of non-empty batches it emitted. Fields are atomics: morsel
// workers update them concurrently.
type opMeter struct {
	rows    int64
	nanos   int64
	batches int64
}

func (m *opMeter) observeBatch(start time.Time, rows int) {
	atomic.AddInt64(&m.nanos, int64(time.Since(start)))
	if rows > 0 {
		atomic.AddInt64(&m.rows, int64(rows))
		atomic.AddInt64(&m.batches, 1)
	}
}

// vecMeter wraps one operator, metering each pull.
type vecMeter struct {
	child vecIter
	m     *opMeter
}

func (mi *vecMeter) next(ctx context.Context, want int) ([]item, error) {
	start := time.Now()
	items, err := mi.child.next(ctx, want)
	mi.m.observeBatch(start, len(items))
	return items, err
}

// selMeters holds the meters of one SELECT branch, in chain order.
// Pointers are nil for operators the branch does not have.
type selMeters struct {
	scan     *opMeter
	joins    []*opMeter
	residual *opMeter
	// gather is set when the branch ran parallel morsels.
	gather        *opMeter
	gatherWorkers int
	gatherMorsels int
	agg           *opMeter // projection or aggregation
	sort          *opMeter
	distinct      *opMeter
	limit         *opMeter
}

// planMeters holds every meter of one executed statement: one selMeters
// per branch (head first, then union branches in order — the same order
// vecOpenSelect opens them), plus the union-level operators.
type planMeters struct {
	branches      []*selMeters
	union         *opMeter
	unionDistinct *opMeter
	unionSort     *opMeter
	unionLimit    *opMeter
}

// branch returns the i'th branch meters, nil when out of range.
func (pm *planMeters) branch(i int) *selMeters {
	if pm == nil || i >= len(pm.branches) {
		return nil
	}
	return pm.branches[i]
}

// ExplainAnalyze executes the plan against db (with the given
// parallelism degree, as OpenParallel would) and renders the operator
// tree annotated with estimated rows, actual rows and cumulative time
// per operator, plus an execution summary line.
func (p *Plan) ExplainAnalyze(ctx context.Context, db *rel.Database, workers int) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	rt := newRun()
	if workers > 1 {
		rt.workers = workers
	}
	rt.meters = &planMeters{}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	start := time.Now()
	rows := 0
	_, it, err := vecOpenSelect(ctx, db, p.stmt, p.lg, rt)
	if err != nil {
		rt.close()
		return "", err
	}
	for {
		items, err := it.next(ctx, vecBatch)
		if err == io.EOF {
			break
		}
		if err != nil {
			rt.close()
			return "", err
		}
		rows += len(items)
	}
	rt.close()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms)
	allocs := ms.Mallocs - mallocs
	lg := p.lg
	if lg == nil {
		lg = buildLogical(db, p.stmt)
	}
	root, err := explainTree(db, p.stmt, lg, rt.meters)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	renderExplain(&b, root, "", "")
	fmt.Fprintf(&b, "Execution: %d rows in %s (%d tuples scanned, %d heap allocs)\n",
		rows, fmtNanos(int64(elapsed)), atomic.LoadInt64(&rt.scanned), allocs)
	return b.String(), nil
}

// fmtNanos renders a duration compactly for plan annotations.
func fmtNanos(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
