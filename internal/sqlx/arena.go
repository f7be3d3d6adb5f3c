package sqlx

import (
	"slices"
	"sync"

	"repro/internal/rel"
)

// Batch memory. Everything a batch carries — its []item, their
// environments, the environments' tuple slots and projected rows — is
// carved from an arena owned by the operator that produced it, and stays
// valid until the next pull on that operator: every pull resets the
// arena and carves the new batch over the old one. An operator that
// keeps data past a pull copies exactly what it keeps into a kept store
// (see kept). Arenas come from a pool and go back to it, cleared, when
// the cursor closes. In a morsel chain no arena is reset: a pull that
// finds its operator's arena carved from takes a fresh one, and the
// chain hands them all to its exchange slot, which returns them to the
// pool once the consumer has moved past the slot (see parallel.go).

// arena is the recyclable memory behind an operator's batches. dirty
// holds how far each slice has been carved since the arena was last
// cleared, so release clears what was used, not what a larger query
// once grew it to.
type arena struct {
	items []item
	envs  []env
	slots []rel.Tuple
	vals  []rel.Value
	dirty [4]int
}

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// batch readies the arena an operator carves its next batch from: its
// own, reset — which ends the previous batch — or a pooled one, on the
// first pull and, in a morsel chain, whenever its own is carved from.
func (rt *run) batch(a *arena) *arena {
	if a == nil || rt.morsel && a.carved() {
		a = arenaPool.Get().(*arena)
		rt.arenas = append(rt.arenas, a)
		return a
	}
	a.reset()
	return a
}

func (a *arena) carved() bool {
	return len(a.items)+len(a.envs)+len(a.slots)+len(a.vals) > 0
}

// releaseArenas returns the run's arenas to the pool.
func (rt *run) releaseArenas() {
	for _, a := range rt.arenas {
		a.release()
	}
	rt.arenas = nil
}

// reset makes the arena's memory available to the next batch.
func (a *arena) reset() {
	n := [4]int{len(a.items), len(a.envs), len(a.slots), len(a.vals)}
	poison(a, n)
	for i := range n {
		a.dirty[i] = max(a.dirty[i], n[i])
	}
	a.items, a.envs, a.slots, a.vals = a.items[:0], a.envs[:0], a.slots[:0], a.vals[:0]
}

// release clears the arena, so a pooled arena pins no snapshot, and
// returns it to the pool.
func (a *arena) release() {
	a.reset()
	d := a.dirty
	clear(a.items[:d[0]])
	clear(a.envs[:d[1]])
	clear(a.slots[:d[2]])
	clear(a.vals[:d[3]])
	poison(a, d)
	a.dirty = [4]int{}
	arenaPool.Put(a)
}

// carve extends s by n zeroed elements and returns s and those elements.
// Growing may move s; what was carved before stays where it was.
func carve[T any](s []T, n int) ([]T, []T) {
	i := len(s)
	s = slices.Grow(s, n)[:i+n]
	part := s[i : i+n : i+n]
	clear(part)
	return s, part
}

// envItems carves n items, each an environment of width empty tuple
// slots.
func (a *arena) envItems(rt *run, n, width int) []item {
	var out []item
	var envs []env
	var slots []rel.Tuple
	a.items, out = carve(a.items, n)
	a.envs, envs = carve(a.envs, n)
	a.slots, slots = carve(a.slots, n*width)
	for i := range out {
		envs[i] = env{rt: rt, tuples: slots[i*width : (i+1)*width : (i+1)*width]}
		out[i].env = &envs[i]
	}
	return out
}

// emit appends to the arena's items the environment extending left with
// tuple t at FROM position pos.
func (a *arena) emit(rt *run, left []rel.Tuple, pos int, t rel.Tuple) {
	var tuples []rel.Tuple
	a.slots, tuples = carve(a.slots, len(left))
	copy(tuples, left)
	tuples[pos] = t
	a.envs = append(a.envs, env{rt: rt, tuples: tuples})
	a.items = append(a.items, item{env: &a.envs[len(a.envs)-1]})
}

// kept holds what an operator keeps past a pull: copies out of recycled
// batches, carved from chunks that are never reused, so a copy stays
// valid as long as the operator needs it. Chunks double, so a store of
// n elements allocates O(log n) times and at most about 2n elements.
type kept[T any] struct{ chunk []T }

// alloc carves n zeroed elements.
func (k *kept[T]) alloc(n int) []T {
	if cap(k.chunk)-len(k.chunk) < n {
		k.chunk = make([]T, 0, max(min(max(2*cap(k.chunk), 64), 1<<16), n))
	}
	i := len(k.chunk)
	k.chunk = k.chunk[:i+n]
	return k.chunk[i : i+n : i+n]
}

// copy returns a kept copy of xs.
func (k *kept[T]) copy(xs []T) []T {
	c := k.alloc(len(xs))
	copy(c, xs)
	return c
}
