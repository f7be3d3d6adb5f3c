package datagen

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
)

// FastaText writes n deterministic FASTA records to w — the textual
// corpus for streaming-ingestion tests and benchmarks, where the input
// must exist as a flat file (or an unbounded stream) rather than as an
// already-parsed database. Accessions are unique ("SQ000001", ...),
// descriptions carry a few searchable words, and sequences are ~180
// bases wrapped at 60 columns. Same (n, seed) → byte-identical output.
func FastaText(w io.Writer, n int, seed int64) error {
	return FastaTextRange(w, 0, n, seed)
}

// FastaTextRange writes records start..start+n-1 of the same corpus, so
// a live-tail test can append the continuation of a file it wrote
// earlier without repeating accessions.
func FastaTextRange(w io.Writer, start, n int, seed int64) error {
	rng := rand.New(rand.NewSource(seed + int64(start)))
	organisms := []string{"human", "mouse", "yeast", "zebrafish", "fruitfly"}
	roles := []string{"kinase", "transporter", "receptor", "polymerase", "chaperone"}
	bw := bufio.NewWriter(w)
	for i := start; i < start+n; i++ {
		fmt.Fprintf(bw, ">SQ%06d synthetic %s %s variant %d\n",
			i+1, organisms[i%len(organisms)], roles[(i/5)%len(roles)], i%97)
		seq := randomDNA(rng, 120+rng.Intn(120))
		for len(seq) > 60 {
			bw.WriteString(seq[:60])
			bw.WriteByte('\n')
			seq = seq[60:]
		}
		bw.WriteString(seq)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// FastaDupText is FastaText with planted duplicates, the corpus of the
// duplicate-detection golden and benchmark: every dupEvery-th record is
// a copy of a random earlier one under a new accession — the same
// description words (clone id included, the rare token blocking keys
// on) with a new lot number, and the sequence with 1 % of its bases
// substituted. Same (n, dupEvery, seed) → byte-identical output.
func FastaDupText(w io.Writer, n, dupEvery int, seed int64) error {
	return FastaDupReads(w, n, dupEvery, 120, seed)
}

// FastaDupReads is FastaDupText with sequences of minLen to 2*minLen-1
// bases: at minLen 20, short reads whose sequences duplicate detection
// compares by Jaro-Winkler rather than by q-gram overlap.
func FastaDupReads(w io.Writer, n, dupEvery, minLen int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	organisms := []string{"homo sapiens", "mus musculus", "danio rerio", "gallus gallus"}
	roles := []string{"kinase", "transporter", "receptor", "polymerase", "chaperone", "ligase"}
	descs, seqs := make([]string, n), make([]string, n)
	bw := bufio.NewWriter(w)
	for i := 0; i < n; i++ {
		if dupEvery > 0 && i > 0 && i%dupEvery == 0 {
			orig := rng.Intn(i)
			descs[i], seqs[i] = descs[orig], mutate(rng, seqs[orig], 0.01)
		} else {
			descs[i] = fmt.Sprintf("%s %s subunit clone c%07dx", organisms[rng.Intn(len(organisms))],
				roles[rng.Intn(len(roles))], i+1)
			seqs[i] = randomDNA(rng, minLen+rng.Intn(minLen))
		}
		fmt.Fprintf(bw, ">SQ%07d %s lot u%07dx\n", i+1, descs[i], i+1)
		for seq := seqs[i]; len(seq) > 0; seq = seq[min(60, len(seq)):] {
			bw.WriteString(seq[:min(60, len(seq))])
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}
