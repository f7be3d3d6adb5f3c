// Feedback demonstrates the §6.2 maintenance features: users flag wrong
// links, which are removed and never rediscovered; and data changes
// accumulate against a threshold before a source is re-analyzed ("We
// envisage a threshold on the number of changes to a data source before a
// new analysis is carried out").
//
// Run with: go run ./examples/feedback
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/metadata"
	"repro/internal/rel"
)

func main() {
	corpus := datagen.Generate(datagen.Config{Seed: 33, Proteins: 20})
	sys := core.New(core.Options{OntologySources: []string{"go"}})
	var sources []*rel.Database
	for _, src := range corpus.Sources {
		if _, err := sys.AddSource(src); err != nil {
			log.Fatalf("integrating %s: %v", src.Name, err)
		}
		sources = append(sources, src)
	}
	before := sys.Repo.LinkCount(-1)
	fmt.Printf("links after integration: %d\n", before)

	// A user browsing P10000 decides one of its text links is spurious.
	obj := metadata.ObjectRef{Source: "swissprot", Relation: "protein", Accession: "P10000"}
	view, err := sys.Browse(obj)
	if err != nil {
		log.Fatal(err)
	}
	var victim metadata.Link
	for _, l := range view.Linked {
		if l.Type == metadata.LinkText {
			victim = l
			break
		}
	}
	if victim.Method == "" && len(view.Linked) > 0 {
		victim = view.Linked[0]
	}
	fmt.Printf("user removes link: %s -> %s (%s)\n", victim.From, victim.To, victim.Method)
	if ok, err := sys.RemoveLinkFeedback(victim); err != nil || !ok {
		log.Fatal("link removal failed")
	}
	fmt.Printf("links after feedback: %d\n", sys.Repo.LinkCount(-1))

	// Data changes trickle in; only past the threshold does re-analysis run.
	total := sys.Repo.Source("swissprot").TupleCount
	for _, change := range []int{total / 20, total / 20, total / 12} {
		needs := sys.RecordChanges("swissprot", change)
		fmt.Printf("recorded %d changed tuples -> re-analysis needed: %v\n", change, needs)
		if needs {
			rep, err := sys.Reanalyze("swissprot")
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("re-analysis done in %v; primary still %q\n", rep.Duration(), rep.Structure.Primary)
		}
	}

	// The removed link must not come back after re-analysis (§6.2: "false
	// links between relations can be removed quickly").
	view, err = sys.Browse(obj)
	if err != nil {
		log.Fatal(err)
	}
	for _, l := range view.Linked {
		if l.From == victim.From && l.To == victim.To && l.Type == victim.Type {
			log.Fatal("removed link was resurrected")
		}
	}
	fmt.Println("removed link stayed removed after re-analysis")
}
