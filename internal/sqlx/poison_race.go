//go:build race

package sqlx

import "repro/internal/rel"

// Under the race detector a recycled arena is filled with a sentinel
// before its memory is reused or pooled, so an operator that keeps batch
// memory past a pull without copying it reads "\x00recycled" values —
// wrong rows, or rows of the wrong width — and the tests that run under
// -race fail on it instead of passing by luck.

var (
	poisonValue = rel.Str("\x00recycled")
	poisonTuple = make(rel.Tuple, 64)
	poisonEnv   = env{tuples: make([]rel.Tuple, 64)}
)

func init() {
	fill(poisonTuple, poisonValue)
	fill(poisonEnv.tuples, poisonTuple)
}

// poison overwrites the first n[0] items, n[1] environments, n[2] tuple
// slots and n[3] values of a — what was carved from it.
func poison(a *arena, n [4]int) {
	fill(a.items[:n[0]], item{env: &poisonEnv, row: poisonTuple})
	fill(a.envs[:n[1]], poisonEnv)
	fill(a.slots[:n[2]], poisonTuple)
	fill(a.vals[:n[3]], poisonValue)
}

func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}
