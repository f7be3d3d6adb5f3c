package sqlx

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/parallel"
)

// Morsel-style parallel query execution over an immutable snapshot: the
// base table scan is partitioned into fixed-size morsels, each morsel
// runs the whole scan→filter→join→residual chain on a worker, and an
// exchange operator hands out the buffered morsel outputs strictly in
// morsel order — so rows and their order do not depend on the degree of
// parallelism — before the single-threaded operators above it
// (projection, grouping, ORDER BY, LIMIT) consume them.

// morselSize is how many base tuples one morsel covers. Large enough to
// amortize per-morsel chain setup, small enough to balance skew.
const morselSize = 1024

// lookaheadPerWorker bounds how many morsels may be buffered but not yet
// consumed, per worker — backpressure so a slow consumer does not
// materialize the whole result.
const lookaheadPerWorker = 4

// parallelOK reports whether the bound chain can run partitioned: a
// sequential (non-index) base scan and no build-left hash join (its
// output order follows the right side, which morsel order cannot
// preserve, and it drains its whole child per morsel).
func parallelOK(sel *selectAccess) bool {
	if sel.scan == nil || sel.scan.idx != nil {
		return false
	}
	for _, ja := range sel.joins {
		if ja.strategy == joinHashBuildLeft {
			return false
		}
	}
	return true
}

// gate is the backpressure window between morsel producers and the
// exchange consumer: morsel i may start only once fewer than window
// morsels are buffered ahead of the consumer. The condition depends on
// the morsel index, so the consumer's next morsel is never blocked —
// no token-grant unfairness, no deadlock.
type gate struct {
	mu     sync.Mutex
	cond   *sync.Cond
	base   int // morsels fully consumed
	window int
}

func newGate(window int) *gate {
	g := &gate{window: window}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *gate) wait(ctx context.Context, i int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i >= g.base+g.window {
		if err := ctx.Err(); err != nil {
			return err
		}
		g.cond.Wait()
	}
	return ctx.Err()
}

func (g *gate) advance() {
	g.mu.Lock()
	g.base++
	g.cond.Broadcast()
	g.mu.Unlock()
}

// morselSlot buffers one morsel's chain output.
type morselSlot struct {
	items []item
	err   error
	ready chan struct{}
}

// buildChain builds the scan→joins→residual chain of one SELECT and its
// plan nodes: on the calling goroutine, or as parallel morsels behind a
// gate-windowed exchange when the run requests workers and the chain is
// eligible (see parallelOK). The chain's nodes are made once and shared
// by every morsel chain; a Gather node appears only when the exchange
// runs.
func buildChain(ctx context.Context, sel *selectAccess, lg *logicalSelect, rt *run) (vecIter, *explainNode, error) {
	nodes := chainNodes(sel, lg, rt)
	var top *explainNode
	if nodes != nil {
		top = nodes[len(nodes)-1]
	}
	n := 0
	if sel.scan != nil {
		n = len(sel.scan.r.Tuples)
	}
	if rt.workers > 1 && parallelOK(sel) && n > morselSize {
		morsels := (n + morselSize - 1) / morselSize
		workers := rt.workers
		if workers > morsels {
			workers = morsels
		}
		if err := vecPrebuildJoinSides(ctx, sel, rt); err != nil {
			return nil, nil, err
		}
		it := vecOpenExchange(ctx, sel, lg, rt, nodes, workers, n, morsels)
		it, top = rt.trace(it, top, func(in float64) (string, float64) {
			return fmt.Sprintf("Gather(workers=%d, morsels=%d)", workers, morsels), in
		})
		return it, top, nil
	}
	return vecOpenChain(sel, lg, rt, nodes, 0, n), top, nil
}

// vecPrebuildJoinSides materializes the shared right sides of the
// chain's joins once, so morsel chains do not redo the work per morsel:
// the joinHashBuildRight table and the filtered joinCrossSeq tuple list.
// Each build reads every right tuple exactly once, as the lazy build of
// an unpartitioned chain does.
func vecPrebuildJoinSides(ctx context.Context, sel *selectAccess, rt *run) error {
	for _, ja := range sel.joins {
		var err error
		switch ja.strategy {
		case joinHashBuildRight:
			ja.prevec, err = buildJoinTable(ctx, ja, rt)
		case joinCrossSeq:
			ja.precross, err = buildCrossSide(ctx, ja, rt)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// vecExchangeIter is the parallel→single-threaded exchange: workers fill
// slots out of order, the consumer drains them strictly in morsel order,
// handing out slices of the current slot's buffered items, up to want
// per call. A morsel error is surfaced after the rows that precede it.
type vecExchangeIter struct {
	slots []*morselSlot
	g     *gate
	cur   int
	pos   int
}

func vecOpenExchange(ctx context.Context, sel *selectAccess, lg *logicalSelect, rt *run, nodes []*explainNode, workers, n, morsels int) vecIter {
	cctx, cancel := context.WithCancel(ctx)
	rt.closers = append(rt.closers, cancel)
	ex := &vecExchangeIter{g: newGate(workers * lookaheadPerWorker)}
	for i := 0; i < morsels; i++ {
		ex.slots = append(ex.slots, &morselSlot{ready: make(chan struct{})})
	}
	// Wake gate waiters when the cursor is closed or canceled. The
	// mutex is taken so the broadcast cannot slip between a waiter's
	// ctx check and its Wait (lost wakeup).
	go func() {
		<-cctx.Done()
		ex.g.mu.Lock()
		ex.g.cond.Broadcast()
		ex.g.mu.Unlock()
	}()
	go func() {
		defer func() {
			// A worker panic must not be silently swallowed in a
			// detached goroutine: convert it into a morsel error at the
			// first unfinished slot so the consumer surfaces it.
			if r := recover(); r != nil {
				for _, slot := range ex.slots {
					select {
					case <-slot.ready:
					default:
						if slot.err == nil {
							if err, ok := r.(error); ok {
								slot.err = err
							} else {
								slot.err = context.Canceled
							}
						}
						close(slot.ready)
					}
				}
			}
		}()
		_ = parallel.For(cctx, workers, morsels, func(i int) {
			slot := ex.slots[i]
			defer close(slot.ready)
			if err := ex.g.wait(cctx, i); err != nil {
				slot.err = err
				return
			}
			lo := i * morselSize
			hi := lo + morselSize
			if hi > n {
				hi = n
			}
			mrt := &run{subs: rt.subs}
			it := vecOpenChain(sel, lg, mrt, nodes, lo, hi)
			for {
				items, err := it.next(cctx, vecBatch)
				if err == io.EOF {
					break
				}
				if err != nil {
					slot.err = err
					break
				}
				// Batch arenas are never reused, so buffering the item
				// structs (env pointers) is safe.
				slot.items = append(slot.items, items...)
			}
			atomic.AddInt64(&rt.scanned, atomic.LoadInt64(&mrt.scanned))
		})
	}()
	return ex
}

func (ex *vecExchangeIter) next(ctx context.Context, want int) ([]item, error) {
	for {
		if ex.cur >= len(ex.slots) {
			return nil, io.EOF
		}
		slot := ex.slots[ex.cur]
		select {
		case <-slot.ready:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if ex.pos < len(slot.items) {
			n := len(slot.items) - ex.pos
			if n > want {
				n = want
			}
			out := slot.items[ex.pos : ex.pos+n]
			ex.pos += n
			return out, nil
		}
		if slot.err != nil {
			return nil, slot.err
		}
		slot.items = nil // release morsel memory as it is consumed
		ex.cur++
		ex.pos = 0
		ex.g.advance()
	}
}
