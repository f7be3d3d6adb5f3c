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

// morselSlot buffers one morsel's chain output: the batches it emitted
// and the arenas they were carved from, which the slot owns until the
// consumer moves past it.
type morselSlot struct {
	batches [][]item
	arenas  []*arena
	err     error
	ready   chan struct{}
}

// release returns the slot's arenas to the pool; its batches are
// invalid after it.
func (s *morselSlot) release() {
	for _, a := range s.arenas {
		a.release()
	}
	s.batches, s.arenas = nil, nil
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
// handing out slices of the current slot's buffered batches, up to want
// per call. Moving past a slot releases its arenas: the items handed out
// from it are valid until that next pull, as any batch is. A morsel
// error is surfaced after the rows that precede it.
type vecExchangeIter struct {
	slots []*morselSlot
	g     *gate
	cur   int // slot
	batch int // batch in the current slot
	pos   int // item in the current batch
}

func vecOpenExchange(ctx context.Context, sel *selectAccess, lg *logicalSelect, rt *run, nodes []*explainNode, workers, n, morsels int) vecIter {
	cctx, cancel := context.WithCancel(ctx)
	ex := &vecExchangeIter{g: newGate(workers * lookaheadPerWorker)}
	for i := 0; i < morsels; i++ {
		ex.slots = append(ex.slots, &morselSlot{ready: make(chan struct{})})
	}
	rt.closers = append(rt.closers, cancel, ex.close)
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
			mrt := &run{subs: rt.subs, morsel: true}
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
				// A morsel chain never resets an arena, so every batch
				// stays valid until the slot releases the arenas.
				slot.batches = append(slot.batches, items)
			}
			slot.arenas = mrt.arenas
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
		for ex.batch < len(slot.batches) {
			b := slot.batches[ex.batch]
			if ex.pos < len(b) {
				n := min(len(b)-ex.pos, want)
				out := b[ex.pos : ex.pos+n]
				ex.pos += n
				return out, nil
			}
			ex.batch++
			ex.pos = 0
		}
		if slot.err != nil {
			return nil, slot.err
		}
		slot.release()
		ex.cur++
		ex.batch = 0
		ex.g.advance()
	}
}

// close releases the arenas of every slot a finished morsel filled,
// consumed or not; a morsel still running when the cursor closes leaves
// its arenas to the collector.
func (ex *vecExchangeIter) close() {
	for _, slot := range ex.slots[min(ex.cur, len(ex.slots)):] {
		select {
		case <-slot.ready:
			slot.release()
		default:
		}
	}
}
