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

// EXPLAIN ANALYZE support: under run.analyze every plan node buildSelect
// returns owns an opMeter, and its operator is wrapped in a vecMeter
// counting emitted rows, batches and cumulative time (child time
// included, as in PostgreSQL). Parallel morsel chains share their chain
// nodes' meters, so counts aggregate across workers; times then sum
// worker CPU time and can exceed wall clock.

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
	defer rt.close()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	start := time.Now()
	// Subqueries materialize first, untraced: their operators are not
	// part of the statement's plan.
	if err := rt.materializeAll(ctx, db, p.lg); err != nil {
		return "", err
	}
	rt.explain, rt.analyze = true, true
	_, it, root, err := buildSelect(ctx, db, p.lg, rt)
	if err != nil {
		return "", err
	}
	rows := 0
	for {
		items, err := it.next(ctx, vecBatch)
		if err == io.EOF {
			break
		}
		if err != nil {
			return "", err
		}
		rows += len(items)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms)
	allocs := ms.Mallocs - mallocs
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
