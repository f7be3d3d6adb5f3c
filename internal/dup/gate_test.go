package dup

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// gateCorpora are the three golden corpora and random records of every
// shape the scorer dispatches on, in two sources.
func gateCorpora(t *testing.T) []struct {
	name    string
	records []Record
} {
	rng := rand.New(rand.NewSource(5))
	var random []Record
	for i := 0; i < 600; i++ {
		random = append(random, randomRecord(rng, fmt.Sprintf("r%d", i%2), i))
	}
	return []struct {
		name    string
		records []Record
	}{
		{"datagen60", datagenRecords(t, 60)},
		{"fasta1000", fastaRecords(t, 1000, 50, 120)},
		{"shortreads", fastaRecords(t, 1000, 50, 20)},
		{"random", random},
	}
}

// Whenever the gate rejects a pair, scoring it in full gives at most 0.5.
// The pairs are each record against its 30 successors and as many random
// ones, under frequency weights over the whole corpus.
func TestDupGateRejectsOnlyHalvedPairs(t *testing.T) {
	for _, c := range gateCorpora(t) {
		m := NewMatcher(c.records)
		ps := make([]*prepared, len(c.records))
		for i, r := range c.records {
			ps[i] = prepare(r, uint32(i+1))
			ps[i].resolve(m)
		}
		rng := rand.New(rand.NewSource(9))
		rejected, atHalf := 0, 0
		check := func(a, b *prepared) {
			gated, _ := score(a, b, true)
			full, _ := score(a, b, false)
			ok := gated >= 0
			switch {
			case ok && gated != full:
				t.Fatalf("%s: %s~%s passed the gate at %v, scores %v in full", c.name, a.rec.Accession, b.rec.Accession, gated, full)
			case !ok && full > 0.5:
				t.Fatalf("%s: the gate rejected %s~%s, which scores %v", c.name, a.rec.Accession, b.rec.Accession, full)
			case !ok:
				rejected++
				if full == 0.5 {
					atHalf++
				}
			}
		}
		for i, a := range ps {
			for _, b := range ps[i+1 : min(i+31, len(ps))] {
				check(a, b)
			}
			for k := 0; k < 30; k++ {
				check(a, ps[rng.Intn(len(ps))])
			}
		}
		t.Logf("%s: %d pairs rejected, %d of them scoring exactly 0.5", c.name, rejected, atHalf)
		if rejected == 0 {
			t.Errorf("%s: the gate rejected no pair", c.name)
		}
	}
}

// Above a threshold of 0.5 the gate changes no answer: FindNewContext
// returns the matches, similarities to the bit, evidence and stats of
// scoring every candidate in full, which it does at 0.4 with the gate
// off. At 0.5 itself the gate must stay off, since a halved pair can
// score exactly 0.5.
func TestDupGateKeepsEveryAnswer(t *testing.T) {
	const batches = 4
	run := func(records []Record, opts Options) ([]Match, Stats) {
		ix := NewIndex()
		var all []Match
		var total Stats
		for b := 0; b < batches; b++ {
			ms, st, err := ix.FindNewContext(context.Background(), records[b*len(records)/batches:(b+1)*len(records)/batches], opts)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, ms...)
			total.Records = st.Records
			total.Comparisons += st.Comparisons
			total.Scored += st.Scored
			total.Flagged += st.Flagged
		}
		return all, total
	}
	for _, c := range gateCorpora(t) {
		for _, blocking := range []BlockingMode{SortedNeighborhood, FullPairwise} {
			if blocking == FullPairwise && c.name != "random" && c.name != "datagen60" {
				continue
			}
			full, fullStats := run(c.records, Options{Threshold: 0.4, Blocking: blocking})
			if fullStats.Scored != fullStats.Comparisons {
				t.Fatalf("%s: at 0.4 %d of %d comparisons scored in full", c.name, fullStats.Scored, fullStats.Comparisons)
			}
			for _, threshold := range []float64{0.5, 0.51, 0.6, 0.8, 0.95} {
				label := fmt.Sprintf("%s/blocking=%d/threshold=%v", c.name, blocking, threshold)
				var want []Match
				for _, m := range full {
					if m.Similarity >= threshold {
						want = append(want, m)
					}
				}
				got, st := run(c.records, Options{Threshold: threshold, Blocking: blocking, Workers: 4})
				if st.Records != fullStats.Records || st.Comparisons != fullStats.Comparisons || st.Flagged != len(want) {
					t.Errorf("%s: stats %+v, want records %d, comparisons %d, flagged %d", label, st, fullStats.Records, fullStats.Comparisons, len(want))
				}
				if len(got) != len(want) {
					t.Errorf("%s: %d matches, want %d", label, len(got), len(want))
					continue
				}
				for i := range got {
					g, w := got[i], want[i]
					if g.A.Accession != w.A.Accession || g.B.Accession != w.B.Accession || g.A.Source != w.A.Source ||
						g.B.Source != w.B.Source || math.Float64bits(g.Similarity) != math.Float64bits(w.Similarity) || g.Evidence != w.Evidence {
						t.Errorf("%s: match %d is %s~%s %v %q, want %s~%s %v %q", label, i,
							g.A.Accession, g.B.Accession, g.Similarity, g.Evidence, w.A.Accession, w.B.Accession, w.Similarity, w.Evidence)
						break
					}
				}
			}
		}
	}
}

// Stats.Scored counts the pairs scored in full: on fasta1000 at the
// default threshold the gate leaves few of them, and with the gate off,
// at 0.4, it is every comparison.
func TestDupGateScoredCounts(t *testing.T) {
	records := fastaRecords(t, 1000, 50, 120)
	_, st := FindDuplicates(records, Options{})
	t.Logf("default threshold: %d of %d comparisons scored in full", st.Scored, st.Comparisons)
	if st.Flagged == 0 || st.Scored < st.Flagged || st.Scored*100 > st.Comparisons {
		t.Errorf("default threshold: scored %d of %d comparisons (flagged %d), want far fewer than the comparisons", st.Scored, st.Comparisons, st.Flagged)
	}
	if _, st := FindDuplicates(records, Options{Threshold: 0.4}); st.Scored != st.Comparisons {
		t.Errorf("threshold 0.4: scored %d of %d comparisons, want all", st.Scored, st.Comparisons)
	}
}
