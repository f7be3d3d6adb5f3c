package dup

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// synthRecords builds n records for one source; record i of every source
// generated with the same overlap offset shares its name field with
// record i of the others, so cross-source duplicates exist by
// construction.
func synthRecords(source string, n int) []Record {
	out := make([]Record, n)
	for i := range out {
		out[i] = Record{
			Source:    source,
			Relation:  "r",
			Accession: fmt.Sprintf("%s-%04d", source, i),
			Fields: map[string]string{
				"name": fmt.Sprintf("unique protein kinase variant-%04d", i),
				"note": fmt.Sprintf("catalyzes reaction path %d of the synthetic pathway", i%5),
			},
		}
	}
	return out
}

func matchKeys(ms []Match) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = pairKey(m.A, m.B)
	}
	return out
}

// FindNew is FindNewContext without cancellation.
func (ix *Index) FindNew(added []Record, opts Options) ([]Match, Stats) {
	matches, stats, _ := ix.FindNewContext(context.Background(), added, opts)
	return matches, stats
}

// incremental indexes existing, then flags the duplicate pairs involving
// added.
func incremental(existing, added []Record) ([]Match, Stats) {
	ix := NewIndex()
	ix.Add(existing)
	return ix.FindNew(added, Options{})
}

func TestIncrementalAllNewMatchesFull(t *testing.T) {
	a := synthRecords("alpha", 40)
	b := synthRecords("beta", 40)
	all := append(append([]Record{}, a...), b...)

	full, fullStats := FindDuplicates(all, Options{})
	inc, incStats := incremental(nil, all)
	if len(full) == 0 {
		t.Fatal("no duplicates found at all")
	}
	if !reflect.DeepEqual(matchKeys(full), matchKeys(inc)) {
		t.Errorf("all-new incremental differs from full: %d vs %d matches", len(full), len(inc))
	}
	if fullStats.Comparisons != incStats.Comparisons {
		t.Errorf("comparisons: full %d, incremental %d", fullStats.Comparisons, incStats.Comparisons)
	}
}

func TestIncrementalSkipsExistingPairs(t *testing.T) {
	a := synthRecords("alpha", 40)
	b := synthRecords("beta", 40)
	union := append(append([]Record{}, a...), b...)

	full, fullStats := FindDuplicates(union, Options{})
	inc, incStats := incremental(a, b)

	// The incremental pass performs strictly fewer comparisons (it skips
	// existing×existing) yet must flag every cross-source pair the full
	// run flags: the record batches are disjoint sources, so every full
	// match has one endpoint in the added batch.
	if incStats.Comparisons >= fullStats.Comparisons {
		t.Errorf("incremental did not save work: %d vs %d comparisons", incStats.Comparisons, fullStats.Comparisons)
	}
	fullCross := make(map[string]bool)
	for _, m := range full {
		if m.A.Source != m.B.Source {
			fullCross[pairKey(m.A, m.B)] = true
		}
	}
	incSet := make(map[string]bool)
	for _, m := range inc {
		incSet[pairKey(m.A, m.B)] = true
	}
	for k := range fullCross {
		if !incSet[k] {
			t.Errorf("full-run cross match missing from incremental: %s", k)
		}
	}
}

func TestIndexBatchOrderInvariance(t *testing.T) {
	// The merged sorted-neighbourhood lists must be identical whether
	// records arrive in one batch or several: FindNew windows then cover
	// the same neighbourhoods as a full re-sort.
	a, b, c := synthRecords("alpha", 25), synthRecords("beta", 25), synthRecords("gamma", 25)

	oneBatch := NewIndex()
	oneBatch.Add(append(append(append([]Record{}, a...), b...), c...))
	stepwise := NewIndex()
	for _, batch := range [][]Record{c, a, b} {
		stepwise.Add(batch)
	}
	oneBatch.fold()
	stepwise.fold()
	order := func(ps []*prepared, pass int) []string {
		out := make([]string, len(ps))
		for i, p := range ps {
			out[i] = p.keys[pass] + " " + p.rec.Source + " " + p.rec.Accession
		}
		return out
	}
	for pass := 0; pass < 2; pass++ {
		if !reflect.DeepEqual(order(oneBatch.passes[pass], pass), order(stepwise.passes[pass], pass)) {
			t.Errorf("pass %d orders differ between batch layouts", pass)
		}
	}
}

// TestIndexRemoveSourceRestoresState: removing a whole source's records
// restores the index and its matcher exactly.
func TestIndexRemoveSourceRestoresState(t *testing.T) {
	a := synthRecords("alpha", 30)
	b := synthRecords("beta", 30)

	ix := NewIndex()
	ix.Add(a)
	first, _ := ix.FindNew(b, Options{})
	ix.Remove(b)
	if ix.Len() != len(a) {
		t.Fatalf("Len after remove = %d, want %d", ix.Len(), len(a))
	}
	second, _ := ix.FindNew(b, Options{})
	if !reflect.DeepEqual(matchKeys(first), matchKeys(second)) {
		t.Errorf("re-adding after Remove changed matches: %d vs %d", len(first), len(second))
	}

	// The matcher's frequency tables must be exactly unwound too.
	clean := NewIndex()
	clean.Add(a)
	clean.fold()
	ix.Remove(b)
	if !reflect.DeepEqual(ix.matcher, clean.matcher) {
		t.Error("matcher state not restored by Remove")
	}
}

func TestFindDuplicatesWorkerParity(t *testing.T) {
	a := synthRecords("alpha", 60)
	b := synthRecords("beta", 60)
	all := append(append([]Record{}, a...), b...)
	serial, sStats := FindDuplicates(all, Options{Workers: 1})
	par, pStats := FindDuplicates(all, Options{Workers: 8})
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("worker counts disagree: %d vs %d matches", len(serial), len(par))
	}
	if sStats != pStats {
		t.Errorf("stats disagree: %+v vs %+v", sStats, pStats)
	}
}

// sameMatches fails unless got and want hold the same pairs in the same
// order and orientation, with bit-identical similarities and the same
// evidence.
func sameMatches(t *testing.T, what string, got, want []Match) {
	t.Helper()
	for k := range min(len(got), len(want)) {
		g, w := got[k], want[k]
		if !reflect.DeepEqual(g.A, w.A) || !reflect.DeepEqual(g.B, w.B) ||
			math.Float64bits(g.Similarity) != math.Float64bits(w.Similarity) || g.Evidence != w.Evidence {
			t.Fatalf("%s: match %d is %s~%s %v %q, want %s~%s %v %q", what, k,
				g.A.Accession, g.B.Accession, g.Similarity, g.Evidence,
				w.A.Accession, w.B.Accession, w.Similarity, w.Evidence)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", what, len(got), len(want))
	}
}

// Queued Adds answer as eager ones. Over random batch splits of
// mixed-shape records — twins (one Source and Accession, the same
// blocking keys, different fields) inside a batch and across batches, and
// batches removed right after Add, as restore's unwind does — FindNew
// after queued Adds gives the matches, similarity bits, evidence and
// Stats of an index that inserts at every Add. An index that has only
// been Added to holds no prepared form and no matcher count.
func TestDupDeferredAddMatchesEager(t *testing.T) {
	finds, flagged := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lazy, eager := NewIndex(), NewIndex()
		queued, onlyAdded := 0, true
		find := func(step int, batch []Record) {
			opts := Options{Threshold: []float64{0.4, 0.6, 0.8}[rng.Intn(3)], Blocking: BlockingMode(rng.Intn(2))}
			got, gotStats := lazy.FindNew(batch, opts)
			want, wantStats := eager.FindNew(batch, opts)
			what := fmt.Sprintf("seed %d step %d (%+v)", seed, step, opts)
			sameMatches(t, what, got, want)
			if gotStats != wantStats {
				t.Fatalf("%s: stats %+v, want %+v", what, gotStats, wantStats)
			}
			finds, flagged = finds+1, flagged+len(want)
		}
		for step := 0; step < 14; step++ {
			src := fmt.Sprintf("s%d", rng.Intn(3))
			batch := make([]Record, 1+rng.Intn(40))
			for i := range batch {
				batch[i] = randomRecord(rng, src, rng.Intn(60))
			}
			for k := rng.Intn(4); k > 0; k-- {
				// A token no smaller than the blocking keys leaves them as
				// they are, so the twins tie in both pass orders.
				twin := batch[rng.Intn(len(batch))]
				twin.Fields = maps.Clone(twin.Fields)
				twin.Fields["zz"] = "zzzz zzzz"
				batch = append(batch, twin)
			}
			switch rng.Intn(5) {
			case 0, 1, 2:
				lazy.Add(batch)
				eager.Add(batch)
				eager.fold()
				queued += len(batch)
				if rng.Intn(4) == 0 {
					lazy.Remove(batch)
					eager.Remove(batch)
					queued -= len(batch)
					onlyAdded = false
				}
			default:
				find(step, batch)
				onlyAdded = false
			}
			if onlyAdded && (lazy.livePrepared() != 0 || lazy.Len() != queued ||
				len(lazy.matcher.valueCount) != 0 || len(lazy.matcher.tokenDF) != 0 || lazy.matcher.records != 0) {
				t.Fatalf("seed %d step %d: an index only Added to holds %d prepared records, %d values, %d tokens (Len %d, want %d)",
					seed, step, lazy.livePrepared(), len(lazy.matcher.valueCount), len(lazy.matcher.tokenDF), lazy.Len(), queued)
			}
		}
		find(-1, synthRecords(fmt.Sprintf("s%d", rng.Intn(3)), 20))
		if !reflect.DeepEqual(lazy.matcher, eager.matcher) || lazy.Len() != eager.Len() {
			t.Fatalf("seed %d: the lazy index's matcher or Len differs from the eager one's", seed)
		}
	}
	if finds < 100 || flagged < 100 {
		t.Fatalf("only %d FindNew calls compared, %d matches", finds, flagged)
	}
	t.Logf("%d FindNew calls, %d matches", finds, flagged)
}
