package dup

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// tiedPair is built so that every aggregate has a tie to break: on each
// side two fields hold the same value, so each field has two equally good
// counterparts and two fields compete for the evidence. Fresh maps per
// call, so Go's map iteration order differs from call to call.
func tiedPair() (Record, Record) {
	a := rec("left", "L1", map[string]string{
		"title": "putative zinc transporter", "label": "putative zinc transporter",
		"organism": "Homo sapiens", "note": "membrane protein of the inner envelope",
	})
	b := rec("right", "R1", map[string]string{
		"name": "putative zinc transporter", "synonym": "putative zinc transporter",
		"species": "homo sapiens", "comment": "inner envelope membrane protein family",
	})
	return a, b
}

func TestDupDeterministicScore(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		sims, evidence := map[uint64]bool{}, map[string]bool{}
		for i := 0; i < 200; i++ {
			a, b := tiedPair()
			var m *Matcher
			if weighted {
				m = NewMatcher([]Record{a, b})
			}
			sim, ev := m.Similarity(a, b)
			sims[math.Float64bits(sim)] = true
			evidence[ev] = true
		}
		if len(sims) != 1 || len(evidence) != 1 {
			t.Errorf("weighted=%v: 200 scores of one pair: %d similarity bit patterns, evidence %v", weighted, len(sims), evidence)
		}
		// Under uniform weights four field pairs tie at 1: the first in
		// name order is the evidence.
		if !weighted && !evidence["label~name"] {
			t.Errorf("evidence %v, want label~name", evidence)
		}
	}
}

// The same batch found against the same records gives the same matches to
// the bit, however those records were inserted.
func TestDupDeterministicFindNew(t *testing.T) {
	var want []Match
	for i := 0; i < 20; i++ {
		base := append(synthRecords("alpha", 30), synthRecords("beta", 30)...)
		a, b := tiedPair()
		ix := NewIndex()
		if i%2 == 0 {
			ix.Add(append(base, a))
		} else {
			ix.Add(base[40:])
			ix.Add(base[:15])
			ix.Add(append(base[15:40:40], a))
		}
		got, _ := ix.FindNew(append(synthRecords("gamma", 30), b), Options{})
		if i == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: matches differ from run 0 (%d vs %d)", i, len(got), len(want))
		}
	}
	tied := false
	for _, m := range want {
		tied = tied || (m.A.Accession == "R1" && m.B.Accession == "L1")
	}
	if !tied {
		t.Error("the tied pair was not among the matches")
	}
}

// randomRecord draws fields of every shape the scorer dispatches on:
// short names (Jaro-Winkler), prose (Jaccard), sequences (Dice),
// accession-shaped codes, and values shared between records.
func randomRecord(rng *rand.Rand, src string, i int) Record {
	names := []string{"hba1", "hbb", "insulin", "insulinlike", "tp53", "trypsin", "trypsinogen", "martha", "marhta", "dixon", "dicksonx"}
	words := []string{"alpha", "beta", "chain", "kinase", "binding", "protein", "of", "the", "membrane", "zinc"}
	fields := map[string]string{}
	for f := 0; f < 1+rng.Intn(5); f++ {
		var v string
		switch rng.Intn(4) {
		case 0:
			v = names[rng.Intn(len(names))]
			if rng.Intn(2) == 0 {
				v += " " + names[rng.Intn(len(names))]
			}
		case 1:
			for w := 0; w < 3+rng.Intn(5); w++ {
				v += words[rng.Intn(len(words))] + " "
			}
		case 2:
			b := make([]byte, 40+rng.Intn(60))
			for k := range b {
				b[k] = "ACGT"[rng.Intn(4)]
			}
			v = string(b)
		case 3:
			v = fmt.Sprintf("P%05d", rng.Intn(20))
		}
		fields[fmt.Sprintf("f%d", rng.Intn(8))] = v
	}
	return rec(src, fmt.Sprintf("%s%d", src, i), fields)
}

func TestScoreSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var records []Record
	for i := 0; i < 120; i++ {
		records = append(records, randomRecord(rng, "s", i))
	}
	m := NewMatcher(records)
	for i := 0; i < 4000; i++ {
		a, b := records[rng.Intn(len(records))], records[rng.Intn(len(records))]
		for _, matcher := range []*Matcher{nil, m} {
			ab, _ := matcher.Similarity(a, b)
			ba, _ := matcher.Similarity(b, a)
			if ab != ba {
				t.Fatalf("sim(a,b)=%v sim(b,a)=%v\na=%v\nb=%v", ab, ba, a.Fields, b.Fields)
			}
		}
	}
}

// livePrepared counts the prepared records reachable from the index,
// vacated slice tails included.
func (ix *Index) livePrepared() int {
	live := map[*prepared]bool{}
	for _, list := range [][]*prepared{ix.all, ix.passes[0], ix.passes[1]} {
		for _, p := range list[:cap(list)] {
			if p != nil {
				live[p] = true
			}
		}
	}
	return len(live)
}

func TestIndexRemoveFreesPrepared(t *testing.T) {
	ix := NewIndex()
	ix.Add(synthRecords("base", 100))
	wantLen, wantLive := ix.Len(), ix.livePrepared()
	wantValues, wantTokens := len(ix.matcher.valueCount), len(ix.matcher.tokenDF)
	check := func(round int) {
		t.Helper()
		if ix.Len() != wantLen || ix.livePrepared() != wantLive ||
			len(ix.matcher.valueCount) != wantValues || len(ix.matcher.tokenDF) != wantTokens {
			t.Fatalf("round %d: Len %d (want %d), live prepared %d (want %d), values %d (want %d), tokens %d (want %d)",
				round, ix.Len(), wantLen, ix.livePrepared(), wantLive,
				len(ix.matcher.valueCount), wantValues, len(ix.matcher.tokenDF), wantTokens)
		}
	}
	for round := 0; round < 50; round++ {
		batch := synthRecords(fmt.Sprintf("upload%d", round), 200)
		if ms, _ := ix.FindNew(batch, Options{}); len(ms) == 0 {
			t.Fatal("batch found no duplicates of the base records")
		}
		ix.Remove(batch)
		check(round)
	}
}

// Scoring a resolved pair allocates nothing: all set-up is per record.
// The pair has a value of every shape, unequal short reads (Jaro-Winkler)
// included.
func TestScoreAllocatesNothing(t *testing.T) {
	a, b := tiedPair()
	a.Fields["seq"] = "ACGTTGCAAGGCTTAACCGGTTAACGTTGCAAGGCTTAACCGGTTAACGTTGCA"
	b.Fields["sequence"] = "ACGTTGCAAGGCTTAACCGGTTAACGTTGCAAGGCATAACCGGTTAACGTTGCA"
	a.Fields["read"] = "ACGTTGCAAGGCTTAACCGGTTAA"
	b.Fields["read"] = "ACGTTGCAAGGATTAACCGGTAAC"
	m := NewMatcher([]Record{a, b})
	pa, pb := prepare(a, 1), prepare(b, 2)
	pa.resolve(m)
	pb.resolve(m)
	for _, gate := range []bool{false, true} {
		if n := testing.AllocsPerRun(100, func() { score(pa, pb, gate) }); n != 0 {
			t.Errorf("gate=%v: score allocates %v times per pair", gate, n)
		}
	}
}
