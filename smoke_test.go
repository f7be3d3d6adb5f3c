package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/metadata"
)

// buildParity integrates three generated sources with the given worker
// count and returns the system. A fresh corpus is generated per system so
// the two runs share no state.
func buildParity(t *testing.T, workers int) *core.System {
	t.Helper()
	corpus := datagen.Generate(datagen.Config{Seed: 7, Proteins: 30})
	sys := core.New(core.Options{OntologySources: []string{"go"}, Workers: workers})
	for _, name := range []string{"swissprot", "pdb", "pir"} {
		if _, err := sys.AddSource(corpus.Source(name)); err != nil {
			t.Fatalf("workers=%d AddSource(%s): %v", workers, name, err)
		}
	}
	return sys
}

// TestParallelSerialParity is the end-to-end smoke test of the concurrent
// pipeline: integrating the same three sources with Workers=1 and
// Workers=8 must discover the identical link and duplicate sets. Run
// under -race (as CI does) this also exercises every parallel inner loop
// for data races.
func TestParallelSerialParity(t *testing.T) {
	serial := buildParity(t, 1)
	parallel := buildParity(t, 8)

	ss, ps := serial.Repo.Stats(), parallel.Repo.Stats()
	if ss.Links == 0 {
		t.Fatal("serial run discovered no links")
	}
	if ss.Links != ps.Links {
		t.Errorf("total links: serial %d, parallel %d", ss.Links, ps.Links)
	}
	for _, typ := range []string{"xref", "sequence", "text", "ontology", "duplicate"} {
		if ss.LinksByType[typ] != ps.LinksByType[typ] {
			t.Errorf("%s links: serial %d, parallel %d", typ, ss.LinksByType[typ], ps.LinksByType[typ])
		}
	}
	if ss.LinksByType["duplicate"] == 0 {
		t.Error("no duplicates flagged (swissprot/pir overlap expected)")
	}

	// Beyond counts: every link must match, endpoint for endpoint and
	// confidence for confidence.
	sl, pl := serial.Repo.AllLinks(), parallel.Repo.AllLinks()
	metadata.SortLinks(sl)
	metadata.SortLinks(pl)
	if len(sl) != len(pl) {
		t.Fatalf("link list length: serial %d, parallel %d", len(sl), len(pl))
	}
	for i := range sl {
		a, b := sl[i], pl[i]
		if a.Type != b.Type || a.From != b.From || a.To != b.To || a.Confidence != b.Confidence {
			t.Fatalf("link %d differs:\n  serial:   %+v\n  parallel: %+v", i, a, b)
		}
	}
}
