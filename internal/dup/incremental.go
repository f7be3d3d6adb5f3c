// Incremental duplicate detection: instead of re-running FindDuplicates
// over the union of all integrated records on every source addition —
// redoing O(total²) comparisons that were already made — an Index keeps
// every record prepared and bucketed by its sorted-neighbourhood blocking
// keys once, and each new source is compared only new×existing + new×new
// within the blocking windows. Matches between two previously-integrated
// records were already flagged when the later of the two arrived.
//
// What is built when, per record (see prepared in dup.go):
//   - at insert (Add, FindNew): fields in name order, one lower-cased
//     copy and one tokenisation per value, the matcher's counts, both
//     blocking keys. Replay through Add — recovery, replica apply,
//     checkpoint load — does nothing else;
//   - at the first comparison: room for the weights;
//   - per FindNew pass: token IDF and value weight, once per distinct
//     record the pass compares — the matcher is frozen between insert and
//     the end of the pass, so no logarithm is taken per pair;
//   - at its first q-gram Dice cell, by the worker computing it: trigram
//     profiles, which a record whose every pair the gate (dup.go) rejects
//     never builds.
//
// Remove drops the records and every form with them.
//
// Deliberate tradeoff vs the full re-run: previously compared pairs are
// NOT rescored under the frequency weights of later batches. A pair just
// below threshold when its later source arrived stays unflagged even if
// subsequent sources shift the IDF weights in its favour, and a flagged
// pair's confidence freezes at its integration-time score. The §6.2
// change-driven re-analysis path is the place to revisit old pairs.
package dup

import (
	"cmp"
	"context"
	"slices"
	"strings"
)

// keyedCmp is the total order of the pass-p sorted-neighbourhood list:
// by blocking key, ties broken by record identity. A strict total order
// matters for the incremental index: merging batches under it yields the
// exact list a full re-sort would, so windows do not depend on the order
// sources were integrated in (blocking-key tie groups can exceed the
// window size, where insertion-point drift would change the candidates).
func keyedCmp(a, b *prepared, pass int) int {
	return cmp.Or(strings.Compare(a.keys[pass], b.keys[pass]),
		strings.Compare(a.rec.Source, b.rec.Source),
		strings.Compare(a.rec.Accession, b.rec.Accession))
}

// Index is the persistent blocking index over all integrated records.
// Records are prepared and bucketed (merged into the sorted pass lists)
// exactly once, when added.
type Index struct {
	// passes[p] holds every indexed record sorted by the pass-p blocking
	// key (p=1 uses the reversed key of the second pass).
	passes  [2][]*prepared
	all     []*prepared
	matcher *Matcher
	lastID  uint32 // id of the most recently inserted record
	pass    uint32 // number of the current FindNew pass
}

// NewIndex creates an empty incremental duplicate index.
func NewIndex() *Index {
	return &Index{matcher: NewMatcher(nil)}
}

// Len returns the number of indexed records.
func (ix *Index) Len() int { return len(ix.all) }

// Add buckets records into the index without comparing them — used when
// replaying a snapshot whose duplicate links are already known.
func (ix *Index) Add(records []Record) {
	ix.insert(records)
}

// insert prepares the records and merges them into both sorted pass
// lists and the matcher, returning their merged positions per pass.
func (ix *Index) insert(records []Record) [2][]int {
	added := make([]*prepared, len(records))
	for i, r := range records {
		ix.lastID++
		added[i] = prepare(r, ix.lastID)
		ix.matcher.add(added[i])
	}
	ix.all = append(ix.all, added...)
	var positions [2][]int
	for pass := range ix.passes {
		slices.SortFunc(added, func(a, b *prepared) int { return keyedCmp(a, b, pass) })
		ix.passes[pass], positions[pass] = mergeKeyed(ix.passes[pass], added, pass)
	}
	return positions
}

// mergeKeyed merges two lists sorted by the pass's key, returning the
// merged list and the positions the `added` entries landed on.
func mergeKeyed(existing, added []*prepared, pass int) ([]*prepared, []int) {
	merged := make([]*prepared, 0, len(existing)+len(added))
	pos := make([]int, 0, len(added))
	i, j := 0, 0
	for i < len(existing) || j < len(added) {
		takeAdded := i >= len(existing) ||
			(j < len(added) && keyedCmp(added[j], existing[i], pass) < 0)
		if takeAdded {
			pos = append(pos, len(merged))
			merged = append(merged, added[j])
			j++
		} else {
			merged = append(merged, existing[i])
			i++
		}
	}
	return merged, pos
}

// Remove drops the given records from the index by identity
// (Source+Accession) — the unwind path when a source addition or a batch
// append fails after duplicate detection ran. At most one indexed record
// is dropped per given record; ix.all is scanned from the end, so a
// just-inserted batch (always the tail) is removed exactly, even when an
// appended accession collides with an older record of the same source.
// The matcher's counts of each dropped record are unwound, and
// slices.DeleteFunc zeroes the vacated tails of all three lists, so
// nothing keeps a removed record or its derived forms alive.
func (ix *Index) Remove(records []Record) {
	want := make(map[[2]string]int, len(records))
	for _, r := range records {
		want[[2]string{r.Source, r.Accession}]++
	}
	gone := make(map[*prepared]bool, len(records))
	for i := len(ix.all) - 1; i >= 0 && len(gone) < len(records); i-- {
		p := ix.all[i]
		if k := [2]string{p.rec.Source, p.rec.Accession}; want[k] > 0 {
			want[k]--
			gone[p] = true
		}
	}
	for p := range gone {
		ix.matcher.remove(p)
	}
	drop := func(p *prepared) bool { return gone[p] }
	ix.all = slices.DeleteFunc(ix.all, drop)
	for pass := range ix.passes {
		ix.passes[pass] = slices.DeleteFunc(ix.passes[pass], drop)
	}
}

// FindNewContext inserts the added records and flags duplicate pairs
// involving at least one of them: new×existing and new×new pairs whose
// positions in the merged sorted-neighbourhood order fall within the
// window (or all such pairs under FullPairwise blocking). Similarity uses
// frequency weights over the whole indexed record set, so scores match
// what a full FindDuplicates over the union would compute for the same
// pairs. The added records are bucketed into the index before scoring,
// so when ctx is canceled mid-scoring the caller must unwind with Remove
// — exactly as on any other mid-pipeline failure.
func (ix *Index) FindNewContext(ctx context.Context, added []Record, opts Options) ([]Match, Stats, error) {
	opts.fill()
	n := len(ix.all)
	firstNew := ix.lastID + 1 // every record of this batch has an id from here up
	positions := ix.insert(added)
	existing, fresh := ix.all[:n], ix.all[n:]
	stats := Stats{Records: len(ix.all)}
	ix.pass++

	// The matcher is frozen from here to the end of the pass: each record
	// is resolved against it when its first candidate pair is admitted.
	seen := make(map[uint64]bool)
	var pairs [][2]*prepared
	add := func(a, b *prepared) {
		if a.rec.Source == b.rec.Source && a.rec.Accession == b.rec.Accession {
			return
		}
		k := uint64(min(a.id, b.id))<<32 | uint64(max(a.id, b.id))
		if seen[k] {
			return
		}
		seen[k] = true
		for _, p := range [2]*prepared{a, b} {
			if p.pass != ix.pass {
				p.pass = ix.pass
				p.resolve(ix.matcher)
			}
		}
		pairs = append(pairs, [2]*prepared{a, b})
	}

	switch opts.Blocking {
	case FullPairwise:
		for ai, a := range fresh {
			for _, b := range existing {
				add(a, b)
			}
			for _, b := range fresh[ai+1:] {
				add(a, b)
			}
		}
	case SortedNeighborhood:
		// The second pass sorts by a reversed key, catching pairs whose
		// primary keys diverge.
		for pass, ks := range ix.passes {
			for _, i := range positions[pass] {
				lo := max(i-window, 0)
				hi := min(i+window, len(ks)-1)
				for j := lo; j <= hi; j++ {
					// A new×new pair within the window is produced from
					// both endpoints' positions; keep the i<j orientation
					// so each pair is generated once (the seen set catches
					// the cross-pass repeats).
					if j == i || (j < i && ks[j].id >= firstNew) {
						continue
					}
					add(ks[i], ks[j])
				}
			}
		}
	}
	stats.Comparisons = len(pairs)
	matches, scored, err := scorePairs(ctx, pairs, opts)
	if err != nil {
		return nil, stats, err
	}
	stats.Scored = scored
	stats.Flagged = len(matches)
	sortMatches(matches)
	return matches, stats, nil
}
