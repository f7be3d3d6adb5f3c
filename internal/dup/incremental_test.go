package dup

import (
	"context"
	"fmt"
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
