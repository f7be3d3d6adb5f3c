package sqlx

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/rel"
)

// Plan is a prepared SELECT statement: the parse tree with every name
// resolved against a database's schemas, ready to be opened as a
// streaming cursor any number of times. A Plan is immutable after
// Prepare — concurrent Open calls (each with its own database snapshot)
// are safe, which is what makes plans cacheable by SQL text.
type Plan struct {
	sql string
	// lg is the resolved, rewritten logical plan (names bound, constants
	// folded, predicates pushed below joins, equality conjuncts
	// extracted); physical access paths bind per Open. See logical.go.
	lg *logicalSelect
}

// Prepare parses sql into an executable plan against db, which must not
// be nil. Only SELECT statements can be planned — DML and DDL have no
// streaming shape and go through Exec. Every table and column name
// resolves here, whatever the data: an unknown or ambiguous name, a
// function given the wrong number of arguments, a misplaced aggregate or
// an ORDER BY key a grouped select does not output fails Prepare, on an
// empty relation as on a full one. Access
// paths bind at Open, so one plan serves successive database snapshots
// whose relations keep the columns it resolved.
func Prepare(db *rel.Database, sql string) (*Plan, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sqlx: cannot prepare %T: only SELECT statements have a streaming plan", stmt)
	}
	lg, err := buildLogical(db, sel)
	if err != nil {
		return nil, err
	}
	return &Plan{sql: sql, lg: lg}, nil
}

// SQL returns the statement text the plan was prepared from.
func (p *Plan) SQL() string { return p.sql }

// Open starts one pull-based execution of the plan against db, choosing
// its access paths there. It fails if a relation the plan reads is gone
// or no longer has the columns Prepare resolved. The returned cursor owns
// no locks and holds no reference to the plan's caller; it stays valid
// as long as db's relations are not mutated (an immutable snapshot makes
// that unconditional).
func (p *Plan) Open(ctx context.Context, db *rel.Database) (*Cursor, error) {
	return p.OpenParallel(ctx, db, 1)
}

// OpenParallel is Open with a parallelism degree: eligible scan chains
// run as parallel morsels on up to workers goroutines (see parallel.go).
// Rows and their order are the same for every value of workers.
// workers <= 1 executes on the calling goroutine.
func (p *Plan) OpenParallel(ctx context.Context, db *rel.Database, workers int) (*Cursor, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rt := newRun()
	if workers > 1 {
		rt.workers = workers
	}
	cols, it, err := openSelect(ctx, db, p.lg, rt)
	if err != nil {
		rt.close()
		return nil, err
	}
	return &Cursor{cols: cols, it: it, rt: rt}, nil
}

// Cursor is one open streaming execution of a Plan. Rows are computed on
// demand: a cursor abandoned after k rows has evaluated only the input
// needed for those k rows (modulo pipeline breakers like ORDER BY and
// aggregation, which drain their input on the first pull, and parallel
// morsels already in flight). Names were resolved at Prepare, so a
// cursor's errors come from values (division by zero, a non-numeric
// operand) and cancellation, never from a name. A Cursor is not safe for
// concurrent use; open one per goroutine.
type Cursor struct {
	cols []string
	// it is the operator tree; buf holds its last batch, refilled one
	// vecBatch pull at a time.
	it   vecIter
	buf  []item
	bpos int

	rt    *run
	pulls int
	done  bool
}

// Columns returns the output column names.
func (c *Cursor) Columns() []string { return c.cols }

// Next returns the next row, or io.EOF after the last one. The row is
// valid until the next call to Next or Close: its memory is recycled for
// later rows, so a caller that keeps a row copies it. Cancellation
// of ctx is checked about every 64 stored-tuple reads (so a canceled
// query aborts even mid-scan) and every 64 emitted rows (so it also
// aborts while draining buffered operators like ORDER BY). After any
// non-EOF error the cursor is closed and stays exhausted.
func (c *Cursor) Next(ctx context.Context) (rel.Tuple, error) {
	if c.done {
		return nil, io.EOF
	}
	c.pulls++
	if c.pulls%ctxBatch == 0 {
		if err := ctx.Err(); err != nil {
			c.done = true
			return nil, err
		}
	}
	if c.bpos >= len(c.buf) {
		items, err := c.it.next(ctx, vecBatch)
		if err != nil {
			c.done = true
			c.rt.close()
			return nil, err
		}
		c.buf, c.bpos = items, 0
	}
	it := c.buf[c.bpos]
	c.bpos++
	return it.row, nil
}

// Scanned reports how many stored tuples the execution has read so far:
// every tuple a scan, an index probe, a hash-join build or a nested-loop
// probe fetched from a relation. The count is proportional to the work
// done, not to the relation sizes: an index scan reads only the matching
// tuples, and at workers <= 1 a LIMIT over an un-joined scan reads
// exactly up to the last row it returns. Under LIMIT an index-probe join
// may read slightly more than the rows returned need — every match of its
// current left row — and with workers > 1 whole morsels in flight past
// the cutoff are counted.
func (c *Cursor) Scanned() int64 { return atomic.LoadInt64(&c.rt.scanned) }

// Close releases the cursor and the memory its rows were carved from;
// subsequent Next calls return io.EOF. Close is idempotent and always
// returns nil.
func (c *Cursor) Close() error {
	c.done = true
	c.rt.close()
	return nil
}
