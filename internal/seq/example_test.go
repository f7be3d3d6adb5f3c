package seq_test

import (
	"fmt"

	"repro/internal/seq"
)

// Example shows the BLAST-shaped homology search: index targets, query
// with a diverged sequence.
func Example() {
	ix := seq.NewIndex(6)
	ix.Add("HBA", "ATGGTGCTGTCTCCTGCCGACAAGACCAACGTCAAGGCCGCC")
	ix.Add("LYS", "ATGAGGTCTTTGCTAATCTTGGTGCTTTGCTTCCTGCCCCTG")

	// One mid-sequence substitution relative to HBA (position 21 G->T).
	query := "ATGGTGCTGTCTCCTGCCGACTAGACCAACGTCAAGGCCGCC"
	for _, hit := range ix.Search(query, seq.SearchOptions{MinScore: 30}) {
		fmt.Printf("%s identity=%.2f\n", hit.TargetID, hit.Alignment.Identity)
	}
	// Output:
	// HBA identity=0.98
}

func ExampleSmithWaterman() {
	al := seq.SmithWaterman("TTTACGTACGTTT", "ACGTACG")
	fmt.Printf("score=%d identity=%.2f span=[%d,%d)\n", al.Score, al.Identity, al.AStart, al.AEnd)
	// Output:
	// score=14 identity=1.00 span=[3,10)
}
