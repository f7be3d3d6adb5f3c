package datagen

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/rel"
)

// LinkedSequences generates the sequence half of the benchmark's
// integrate-linked workload (bench/corpus's EMBL and GenBank files, which
// root tests cannot import): 1,200 EMBL-style entries with upper-case
// 150–249-base sequences, and 24 GenBank-style loci with lower-case ones,
// every even locus a 3%-substituted copy of a random entry. Linking the
// two sources yields 12 sequence links each way.
func LinkedSequences(seed int64) (embl, genbank *rel.Database) {
	rng := rand.New(rand.NewSource(seed))
	embl = rel.NewDatabase("embl")
	entry := embl.Create("entry", rel.TextSchema("entry_id", "accession", "seq"))
	targets := make([]string, 1200)
	for i := range targets {
		targets[i] = randomDNA(rng, 150+rng.Intn(100))
		entry.AppendRaw(fmt.Sprint(i+1), fmt.Sprintf("P%06d", 100000+i), targets[i])
	}
	genbank = rel.NewDatabase("genbank")
	locus := genbank.Create("locus", rel.TextSchema("locus_id", "accession", "seq"))
	for i, t := range rng.Perm(len(targets))[:24] {
		s := randomDNA(rng, 150+rng.Intn(100))
		if i%2 == 0 {
			s = mutate(rng, targets[t], 0.03)
		}
		locus.AppendRaw(fmt.Sprint(i+1), fmt.Sprintf("NM_%07d", 1000+i), strings.ToLower(s))
	}
	return embl, genbank
}
