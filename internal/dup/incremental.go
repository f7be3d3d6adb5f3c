// Incremental duplicate detection: instead of re-running FindDuplicates
// over the union of all integrated records on every source addition —
// redoing O(total²) comparisons that were already made — an Index keeps
// every record prepared and bucketed by its sorted-neighbourhood blocking
// keys once, and each new source is compared only new×existing + new×new
// within the blocking windows. Matches between two previously-integrated
// records were already flagged when the later of the two arrived.
//
// What is built when, per record (see prepared in dup.go):
//   - at Add: nothing. Add only queues the batch; replay through Add —
//     recovery, replica apply, checkpoint load — builds no prepared form
//     and touches no matcher count, and a replica, which never compares,
//     never builds them;
//   - at insert (a FindNew batch, or a queued batch when the next
//     FindNew or Remove folds the queue in, one insert per batch in the
//     order they were added): fields in name order, one lower-cased copy
//     and one tokenisation per value, the matcher's counts, both
//     blocking keys. Folding batch by batch makes the calls an eager Add
//     made, so ids, pass lists and every answer are an eager index's;
//   - at every insert, for every indexed record: its pass-0 position,
//     by which candidate pairs name it;
//   - at the first comparison: room for the weights;
//   - per FindNew pass: each token's order key and IDF and the value
//     weight, once per distinct record the pass compares — the matcher
//     is frozen between insert and the end of the pass, so no logarithm
//     is taken per pair;
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
// exactly once, when first needed.
type Index struct {
	// passes[p] holds every inserted record sorted by the pass-p blocking
	// key (p=1 uses the reversed key of the second pass).
	passes  [2][]*prepared
	all     []*prepared
	pending [][]Record // batches Added but not inserted yet, in order
	matcher *Matcher
	lastID  uint32 // id of the most recently inserted record
	pass    uint32 // number of the current FindNew pass
}

// NewIndex creates an empty incremental duplicate index.
func NewIndex() *Index {
	return &Index{matcher: NewMatcher(nil)}
}

// Len returns the number of indexed records, queued ones included.
func (ix *Index) Len() int {
	n := len(ix.all)
	for _, batch := range ix.pending {
		n += len(batch)
	}
	return n
}

// Add queues records for the index without preparing or comparing them
// — used when replaying a snapshot whose duplicate links are already
// known. The next FindNewContext or Remove inserts them.
func (ix *Index) Add(records []Record) {
	ix.pending = append(ix.pending, records)
}

// fold inserts the queued batches, one insert per batch in the order
// they were added, exactly as an eager Add would have.
func (ix *Index) fold() {
	for _, batch := range ix.pending {
		ix.insert(batch)
	}
	ix.pending = nil
}

// insert prepares the records and merges them into both sorted pass
// lists and the matcher, and renumbers every record's pass-0 position.
func (ix *Index) insert(records []Record) {
	added := make([]*prepared, len(records))
	for i, r := range records {
		ix.lastID++
		added[i] = prepare(r, ix.lastID)
		ix.matcher.add(added[i])
	}
	ix.all = append(ix.all, added...)
	for pass := range ix.passes {
		slices.SortFunc(added, func(a, b *prepared) int { return keyedCmp(a, b, pass) })
		ix.passes[pass] = mergeKeyed(ix.passes[pass], added, pass)
	}
	for i, p := range ix.passes[0] {
		p.pos0 = int32(i)
	}
}

// mergeKeyed merges two lists sorted by the pass's key.
func mergeKeyed(existing, added []*prepared, pass int) []*prepared {
	merged := make([]*prepared, 0, len(existing)+len(added))
	for len(existing) > 0 && len(added) > 0 {
		if keyedCmp(added[0], existing[0], pass) < 0 {
			merged, added = append(merged, added[0]), added[1:]
		} else {
			merged, existing = append(merged, existing[0]), existing[1:]
		}
	}
	return append(append(merged, existing...), added...)
}

// Remove drops the given records from the index by identity
// (Source+Accession) — the unwind path when a source addition or a batch
// append fails after duplicate detection ran, or a restored one after
// Add. Queued batches are inserted first, so Remove drops from the index
// an eager Add would have built. At most one indexed record
// is dropped per given record; ix.all is scanned from the end, so a
// just-inserted batch (always the tail) is removed exactly, even when an
// appended accession collides with an older record of the same source.
// The matcher's counts of each dropped record are unwound, and
// slices.DeleteFunc zeroes the vacated tails of all three lists, so
// nothing keeps a removed record or its derived forms alive.
func (ix *Index) Remove(records []Record) {
	ix.fold()
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
	ix.fold()
	n := len(ix.all)
	ix.insert(added)
	pairs := ix.candidates(n, opts.Blocking)
	stats := Stats{Records: len(ix.all), Comparisons: len(pairs)}

	// The matcher is frozen from here to the end of the pass: each record
	// a candidate pair names is resolved against it once.
	ix.pass++
	recs := ix.passes[0]
	for _, pair := range pairs {
		for _, k := range pair {
			if p := recs[k]; p.pass != ix.pass {
				p.pass = ix.pass
				p.resolve(ix.matcher)
			}
		}
	}
	matches, scored, err := scorePairs(ctx, recs, pairs, opts)
	if err != nil {
		return nil, stats, err
	}
	stats.Scored = scored
	stats.Flagged = len(matches)
	sortMatches(matches)
	return matches, stats, nil
}

// candidates returns the candidate pairs of the batch insert just put
// after the first n records of ix.all, each pair once and oriented as
// generated (new record first), as positions in the pass-0 list. Two
// copies of one object (same Source and Accession) are never a pair.
func (ix *Index) candidates(n int, blocking BlockingMode) [][2]int32 {
	existing, fresh := ix.all[:n], ix.all[n:]
	firstNew := ix.lastID + 1 - uint32(len(fresh))    // the batch's ids run from here up
	pairs := make([][2]int32, 0, 4*window*len(fresh)) // a window's worth either side, per pass
	add := func(a, b *prepared) {
		if a.rec.Source != b.rec.Source || a.rec.Accession != b.rec.Accession {
			pairs = append(pairs, [2]int32{a.pos0, b.pos0})
		}
	}
	switch blocking {
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
			for i, a := range ks {
				if a.id < firstNew {
					continue
				}
				for j := max(i-window, 0); j <= min(i+window, len(ks)-1); j++ {
					// A new×new pair within the window is produced from
					// both endpoints' positions; keep the i<j orientation
					// so each pair is generated once. Pass 0 admitted
					// every pair within the window of its positions, so
					// pass 1 skips those.
					b := ks[j]
					if j == i || (j < i && b.id >= firstNew) ||
						(pass == 1 && max(a.pos0-b.pos0, b.pos0-a.pos0) <= window) {
						continue
					}
					add(a, b)
				}
			}
		}
	}
	return pairs
}
