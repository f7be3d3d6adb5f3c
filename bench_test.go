// Package repro's root bench suite regenerates every table and figure of
// the paper's evaluation programme as testing.B benchmarks; a bench's
// comment names the experiment id it measures. Run with:
//
//	go test -bench=. -benchmem
//
// Quality metrics (precision/recall, counts) are reported via b.ReportMetric
// so `go test -bench` output doubles as the experiment record.
package repro

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/aladin"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/discovery"
	"repro/internal/dup"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/flatfile"
	"repro/internal/linkdisc"
	"repro/internal/metadata"
	"repro/internal/profile"
	"repro/internal/rel"
	"repro/internal/search"
	"repro/internal/seq"
	"repro/internal/sqlx"
	"repro/internal/store"
)

// benchCorpus caches one standard corpus per size across benchmarks.
var corpusCache = map[int]*datagen.Corpus{}

func benchCorpus(n int) *datagen.Corpus {
	if c, ok := corpusCache[n]; ok {
		return c
	}
	c := datagen.Generate(datagen.Config{Seed: 99, Proteins: n})
	corpusCache[n] = c
	return c
}

// integrate builds a system over a fresh copy of the corpus sources.
func integrate(b *testing.B, n int, opts core.Options) *core.System {
	b.Helper()
	corpus := datagen.Generate(datagen.Config{Seed: 99, Proteins: n})
	sys := core.New(opts)
	for _, src := range corpus.Sources {
		if _, err := sys.AddSource(src); err != nil {
			b.Fatalf("integrating %s: %v", src.Name, err)
		}
	}
	return sys
}

// BenchmarkTable1IntegrationCost (E1, Table 1): the cost of integrating
// the full corpus under ALADIN — the machine-time side of the table whose
// manual-action side is printed by cmd/experiments e1.
func BenchmarkTable1IntegrationCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := integrate(b, 40, core.Options{OntologySources: []string{"go"}, DisableSearchIndex: true})
		if len(sys.Sources()) != 6 {
			b.Fatal("integration incomplete")
		}
	}
	b.ReportMetric(0, "manual-actions/source")
}

// BenchmarkFigure2Pipeline (E2, Figures 1+2): one full five-step pipeline
// run per iteration, reporting per-step shares via sub-benchmarks, for
// the serial pipeline (workers=1) and the parallel one (workers=GOMAXPROCS).
func BenchmarkFigure2Pipeline(b *testing.B) {
	steps := []string{"profile", "discover-structure", "link-discovery", "duplicate-detection", "prepare-publish", "register-and-index"}
	type pipelineMode struct {
		name    string
		workers int
	}
	modes := []pipelineMode{{"serial", 1}}
	// On a single-CPU host the parallel variant is the serial one; skip
	// the duplicate run.
	if n := runtime.GOMAXPROCS(0); n > 1 {
		modes = append(modes, pipelineMode{fmt.Sprintf("parallel-%d", n), n})
	}
	for _, mode := range modes {
		for _, step := range steps {
			b.Run(mode.name+"/"+step, func(b *testing.B) {
				var total float64
				for i := 0; i < b.N; i++ {
					corpus := datagen.Generate(datagen.Config{Seed: 99, Proteins: 40})
					sys := core.New(core.Options{OntologySources: []string{"go"}, Workers: mode.workers})
					for _, src := range corpus.Sources {
						rep, err := sys.AddSource(src)
						if err != nil {
							b.Fatal(err)
						}
						for _, t := range rep.Timings {
							if t.Step == step {
								total += float64(t.Duration.Nanoseconds())
							}
						}
					}
				}
				b.ReportMetric(total/float64(b.N), "step-ns/corpus")
			})
		}
	}
}

// BenchmarkFigure3BioSQL (E3, Figure 3/§5): the BioSQL case-study
// discovery walk.
func BenchmarkFigure3BioSQL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.E3BioSQL()
		if err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(strings.Join(tbl.Notes, " "), `"bioentry"`) {
			b.Fatal("BioSQL case study did not select bioentry")
		}
	}
}

// BenchmarkPrimaryRelationPR (E4): primary-relation discovery over the
// corpus, reporting accuracy.
func BenchmarkPrimaryRelationPR(b *testing.B) {
	corpus := benchCorpus(40)
	correct := 0
	total := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		correct, total = 0, 0
		for _, src := range corpus.Sources {
			profs, err := profile.ProfileDatabase(src, profile.Options{})
			if err != nil {
				b.Fatal(err)
			}
			st, err := discovery.Analyze(src, profs, discovery.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			total++
			if strings.EqualFold(st.Primary, corpus.Gold.Primary[strings.ToLower(src.Name)]) {
				correct++
			}
		}
	}
	b.ReportMetric(float64(correct)/float64(total), "primary-accuracy")
}

// BenchmarkForeignKeyPR (E5): FK discovery accuracy across the corpus.
func BenchmarkForeignKeyPR(b *testing.B) {
	corpus := benchCorpus(40)
	var pr eval.PR
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr = eval.PR{}
		for _, src := range corpus.Sources {
			gold := corpus.Gold.ForeignKeys[strings.ToLower(src.Name)]
			if len(gold) == 0 {
				continue
			}
			profs, err := profile.ProfileDatabase(src, profile.Options{})
			if err != nil {
				b.Fatal(err)
			}
			st, err := discovery.Analyze(src, profs, discovery.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			preds := make([]rel.ForeignKey, 0, len(st.ForeignKeys))
			for _, d := range st.ForeignKeys {
				preds = append(preds, d.From)
			}
			pr.Add(eval.CompareFKs(preds, gold))
		}
	}
	b.ReportMetric(pr.Precision(), "precision")
	b.ReportMetric(pr.Recall(), "recall")
}

// BenchmarkCrossRefPR (E6): explicit cross-reference discovery quality.
func BenchmarkCrossRefPR(b *testing.B) {
	var pr eval.PR
	for i := 0; i < b.N; i++ {
		corpus := datagen.Generate(datagen.Config{Seed: 99, Proteins: 40})
		sys := core.New(core.Options{OntologySources: []string{"go"}, DisableSearchIndex: true})
		for _, src := range corpus.Sources {
			if _, err := sys.AddSource(src); err != nil {
				b.Fatal(err)
			}
		}
		gold := append([]datagen.GoldLink{}, corpus.Gold.XRefs...)
		gold = append(gold, corpus.Gold.TermXRefs...)
		pr = eval.CompareLinks(sys.Repo.AllLinks(), metadata.LinkXRef, gold)
	}
	b.ReportMetric(pr.Precision(), "precision")
	b.ReportMetric(pr.Recall(), "recall")
}

// BenchmarkSequenceLinkPR (E7): homology link discovery at 5% mutation.
func BenchmarkSequenceLinkPR(b *testing.B) {
	var pr eval.PR
	for i := 0; i < b.N; i++ {
		corpus := datagen.Generate(datagen.Config{
			Seed: 99, Proteins: 30, Noise: datagen.Noise{SeqMutation: 0.05},
		})
		sys := core.New(core.Options{DisableSearchIndex: true})
		for _, name := range []string{"swissprot", "pdb", "genbank"} {
			if _, err := sys.AddSource(corpus.Source(name)); err != nil {
				b.Fatal(err)
			}
		}
		pr = eval.CompareLinks(sys.Repo.AllLinks(), metadata.LinkSequence, corpus.Gold.Homologs)
	}
	b.ReportMetric(pr.Precision(), "precision")
	b.ReportMetric(pr.Recall(), "recall")
}

// BenchmarkSeededVsFullAlignment (E7 ablation): BLAST-style k-mer seeding
// against the quadratic all-pairs Smith-Waterman baseline. The seeded
// side is link discovery's path: each candidate scored once, both
// directions' alignments for the pairs that reach MinScore.
func BenchmarkSeededVsFullAlignment(b *testing.B) {
	corpus := benchCorpus(40)
	sp := corpus.Source("swissprot").Relation("sequence")
	si := sp.Schema.Index("seq")
	pdb := corpus.Source("pdb").Relation("chain")
	ci := pdb.Schema.Index("chain_seq")
	var queries, targets []seq.Record
	for i, t := range sp.Tuples {
		targets = append(targets, seq.Record{ID: fmt.Sprintf("t%d", i), Seq: t[si].AsString()})
	}
	for i, t := range pdb.Tuples {
		queries = append(queries, seq.Record{ID: fmt.Sprintf("q%d", i), Seq: t[ci].AsString()})
	}
	b.Run("seeded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix := seq.NewIndex(8)
			for _, t := range targets {
				ix.Add(t.ID, t.Seq)
			}
			var w seq.Work
			for _, q := range queries {
				ix.CrossSearch(q.Seq, seq.SearchOptions{MinScore: 40}, &w)
			}
		}
	})
	b.Run("all-pairs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seq.AllPairs(queries, targets, seq.SearchOptions{MinScore: 40})
		}
	})
}

// BenchmarkSeqLinks is sequence-link discovery alone, on the
// integrate-linked workload's sequences: 24 GenBank loci, half of them
// 3%-substituted copies, linked against 1,200 EMBL entries through
// DiscoverAgainst, workers=1, text and entity channels off (xref
// discovery still runs). pairs/op counts the seeded pairs, those sharing
// two 8-mers, and aligned/op those of them Smith-Waterman scored, once
// for both directions; us/pair and allocs/pair spread the whole call over
// the seeded pairs — TestSeqAllocBudget holds the latter to
// ALLOC_budget.json.
func BenchmarkSeqLinks(b *testing.B) {
	embl, genbank := datagen.LinkedSequences(7)
	targets, queries := linkSource(b, embl), linkSource(b, genbank)
	eng := linkdisc.New(linkdisc.Options{Workers: 1, DisableTextLinks: true, DisableEntityLinks: true})
	if err := eng.AddSource(targets); err != nil {
		b.Fatal(err)
	}
	var st linkdisc.Stats
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if _, _, st, err = eng.DiscoverAgainst(context.Background(), queries); err != nil {
			b.Fatal(err)
		}
		if st.SequenceComparisons != 24 {
			b.Fatalf("%d sequence hits, want 24", st.SequenceComparisons)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	pairs := st.SequenceSeeded
	b.ReportMetric(float64(pairs), "pairs/op")
	b.ReportMetric(float64(st.SequenceAligned), "aligned/op")
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*pairs), "us/pair")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*pairs), "allocs/pair")
}

// linkSource profiles db and discovers its structure: a source as link
// discovery takes it.
func linkSource(b *testing.B, db *rel.Database) *linkdisc.Source {
	profs, err := profile.ProfileDatabase(db, profile.Options{})
	if err != nil {
		b.Fatal(err)
	}
	st, err := discovery.Analyze(db, profs, discovery.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	return &linkdisc.Source{DB: db, Structure: st, Profiles: profs}
}

// BenchmarkTextLinksAppend times the §4.4 text links of one streamed
// batch: 200 FASTA records appended to a registered FASTA source,
// discovered both ways against a registered 1,200-protein swissprot
// through DiscoverAppended, workers=1, with the sequence and entity
// channels off. It reports us per batch, candidate comparisons per
// batch, and allocations per comparison. swissprot's forms are built
// before the timer starts, as the batches before this one built them.
func BenchmarkTextLinksAppend(b *testing.B) {
	var text strings.Builder
	if err := datagen.FastaDupText(&text, 400, 50, ingestBenchSeed); err != nil {
		b.Fatal(err)
	}
	reads, err := flatfile.Parse("fasta", strings.NewReader(text.String()), "reads")
	if err != nil {
		b.Fatal(err)
	}
	all := linkSource(b, reads)
	half := func(k int) *rel.Database {
		db := rel.NewDatabase("reads")
		for _, r := range reads.Relations() {
			db.Create(r.Name, r.Schema).Tuples = r.Tuples[k*len(r.Tuples)/2 : (k+1)*len(r.Tuples)/2]
		}
		return db
	}
	first := &linkdisc.Source{DB: half(0), Structure: all.Structure, Profiles: all.Profiles}
	eng := linkdisc.New(linkdisc.Options{Workers: 1, DisableSequenceLinks: true, DisableEntityLinks: true})
	sp := linkSource(b, datagen.Generate(datagen.Config{Seed: 7, Proteins: 1200}).Source("swissprot"))
	for _, s := range []*linkdisc.Source{sp, first} {
		if err := eng.AddSource(s); err != nil {
			b.Fatal(err)
		}
	}
	discover := func() int {
		batch := &linkdisc.Source{DB: half(1), Structure: all.Structure, Profiles: all.Profiles}
		_, _, st, err := eng.DiscoverAppended(context.Background(), batch)
		if err != nil {
			b.Fatal(err)
		}
		return st.TextComparisons
	}
	comparisons := discover()
	if comparisons == 0 {
		b.Fatal("no text comparisons")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := discover(); n != comparisons {
			b.Fatalf("%d text comparisons, first batch made %d", n, comparisons)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/batch")
	b.ReportMetric(float64(comparisons), "comparisons/op")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*comparisons), "allocs/comparison")
}

// BenchmarkAppendBeside times 200-read FASTA batches (20-39 bases, not
// sequence fields) streamed into a node holding EMBL entries, 8 GenBank
// records citing them and a 50-term ontology, with every channel on and
// workers=1, at 1,200 and 12,000 EMBL entries. Each iteration recovers
// the node from a checkpoint, untimed, so its sources hold no derived
// forms but their ownership tables. cold times the stream's first batch,
// a new source, which builds the registered sources' forms; warm times
// the five batches appended after it. ns/batch and allocs/batch count
// the timed batches only. Every iteration recovers the node, so run it
// with -benchtime Nx.
func BenchmarkAppendBeside(b *testing.B) {
	for _, n := range []int{1200, 12000} {
		path := appendBesideNode(b, n)
		b.Run(fmt.Sprintf("embl=%d/cold", n), func(b *testing.B) { benchAppendBeside(b, path, 0) })
		b.Run(fmt.Sprintf("embl=%d/warm", n), func(b *testing.B) { benchAppendBeside(b, path, 5) })
	}
}

// appendBesideOpts is the configuration of BenchmarkAppendBeside's node.
func appendBesideOpts() core.Options {
	return core.Options{Workers: 1, OntologySources: []string{"go"}}
}

// appendBesideNode integrates n EMBL entries, 8 GenBank records and 50
// OBO terms into a data directory, checkpoints it and returns its path.
func appendBesideNode(b *testing.B, n int) string {
	var embl, gb, obo strings.Builder
	if err := datagen.EMBLText(&embl, n, 50, 7); err != nil {
		b.Fatal(err)
	}
	if err := datagen.GenBankText(&gb, 8, n, 7); err != nil {
		b.Fatal(err)
	}
	if err := datagen.OBOText(&obo, 50, 7); err != nil {
		b.Fatal(err)
	}
	path := b.TempDir()
	dir, err := store.OpenDir(path)
	if err != nil {
		b.Fatal(err)
	}
	defer dir.Close()
	sys := core.New(appendBesideOpts())
	sys.AttachDurable(dir)
	for _, f := range []struct{ format, name, text string }{
		{"embl", "swissprot", embl.String()}, {"genbank", "genbank", gb.String()}, {"obo", "go", obo.String()},
	} {
		db, err := flatfile.Parse(f.format, strings.NewReader(f.text), f.name)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.AddSource(db); err != nil {
			b.Fatal(err)
		}
	}
	cp, err := sys.BeginCheckpoint()
	if err == nil {
		err = sys.WriteCheckpoint(cp)
	}
	if err != nil {
		b.Fatal(err)
	}
	return path
}

// benchAppendBeside recovers the node at path, then integrates the first
// 200-read batch of source "tail" and appends warm more; it times the
// first batch if warm is 0, else the appended ones.
func benchAppendBeside(b *testing.B, path string, warm int) {
	var text strings.Builder
	if err := datagen.FastaDupReads(&text, 200*(warm+1), 0, 20, ingestBenchSeed); err != nil {
		b.Fatal(err)
	}
	reads, err := flatfile.Parse("fasta", strings.NewReader(text.String()), "tail")
	if err != nil {
		b.Fatal(err)
	}
	batch := func(k int) *rel.Database {
		db := rel.NewDatabase("tail")
		for _, r := range reads.Relations() {
			db.Create(r.Name, r.Schema).Tuples = r.Tuples[200*k : 200*(k+1) : 200*(k+1)]
		}
		return db
	}
	var timed time.Duration
	var allocs uint64
	var before, after runtime.MemStats
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		dir, err := store.OpenDir(path)
		if err != nil {
			b.Fatal(err)
		}
		sys, _, err := core.Recover(appendBesideOpts(), dir)
		if err != nil {
			b.Fatal(err)
		}
		sys.DisableJournal()
		for k := 0; k <= warm; k++ {
			timing := k > 0 || warm == 0
			if timing {
				runtime.GC()
				runtime.ReadMemStats(&before)
				b.StartTimer()
			}
			t0 := time.Now()
			if k == 0 {
				_, err = sys.AddSource(batch(0))
			} else {
				var p *core.Pending
				if p, err = sys.PrepareAppend(context.Background(), "tail", batch(k)); err == nil {
					_, err = sys.Commit(p)
				}
			}
			if timing {
				timed += time.Since(t0)
				b.StopTimer()
				runtime.ReadMemStats(&after)
				allocs += after.Mallocs - before.Mallocs
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		dir.Close()
	}
	batches := b.N * max(warm, 1)
	b.ReportMetric(float64(timed.Nanoseconds())/float64(batches), "ns/batch")
	b.ReportMetric(float64(allocs)/float64(batches), "allocs/batch")
}

// BenchmarkTextLinkPR (E8): entity-mention link quality.
func BenchmarkTextLinkPR(b *testing.B) {
	var tbl experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = experiments.E8TextPR(40)
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = tbl
}

// BenchmarkDuplicatePR (E9): duplicate detection quality at the default
// threshold over the Swiss-Prot/PIR overlap.
func BenchmarkDuplicatePR(b *testing.B) {
	corpus := benchCorpus(40)
	var records []dup.Record
	for _, name := range []string{"swissprot", "pir"} {
		src := corpus.Source(name)
		profs, err := profile.ProfileDatabase(src, profile.Options{})
		if err != nil {
			b.Fatal(err)
		}
		st, err := discovery.Analyze(src, profs, discovery.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		records = append(records, dup.RecordsFromSource(src, st)...)
	}
	goldSet := eval.GoldLinkSet(corpus.Gold.Duplicates)
	var pr eval.PR
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matches, _ := dup.FindDuplicates(records, dup.Options{})
		links := dup.Links(matches)
		pr = eval.CompareSets(eval.PredictedLinkSet(links, metadata.LinkDuplicate), goldSet)
	}
	b.ReportMetric(pr.Precision(), "precision")
	b.ReportMetric(pr.Recall(), "recall")
}

// BenchmarkBlockingAblation (E9/E10 ablation): sorted-neighbourhood
// blocking vs full pairwise comparison.
func BenchmarkBlockingAblation(b *testing.B) {
	corpus := benchCorpus(100)
	var records []dup.Record
	for _, name := range []string{"swissprot", "pir", "pdb"} {
		src := corpus.Source(name)
		profs, _ := profile.ProfileDatabase(src, profile.Options{})
		st, _ := discovery.Analyze(src, profs, discovery.DefaultOptions())
		records = append(records, dup.RecordsFromSource(src, st)...)
	}
	b.Run("sorted-neighborhood", func(b *testing.B) {
		var comparisons int
		for i := 0; i < b.N; i++ {
			_, stats := dup.FindDuplicates(records, dup.Options{Blocking: dup.SortedNeighborhood})
			comparisons = stats.Comparisons
		}
		b.ReportMetric(float64(comparisons), "comparisons")
	})
	b.Run("full-pairwise", func(b *testing.B) {
		var comparisons int
		for i := 0; i < b.N; i++ {
			_, stats := dup.FindDuplicates(records, dup.Options{Blocking: dup.FullPairwise})
			comparisons = stats.Comparisons
		}
		b.ReportMetric(float64(comparisons), "comparisons")
	})
}

// dupFindNewCases are BenchmarkDupFindNew's two record shapes: minimum
// sequence length 120, values that duplicate detection compares by
// q-gram overlap, and 20, short reads it compares by Jaro-Winkler.
var dupFindNewCases = []struct {
	name   string
	minLen int
}{{"sequences", 120}, {"short-reads", 20}}

// BenchmarkDupFindNew is the step an uploader waits for, alone: 4,000
// FASTA records, every 50th a planted duplicate, streamed into one
// dup.Index in 8 batches, once per dupFindNewCases shape. ns/pair is the
// whole pass (prepare, candidates, scoring) per compared pair;
// scored/pair is the share of pairs scored in full, past the gate;
// allocs/pair is what TestDupAllocBudget holds to ALLOC_budget.json —
// scoring a prepared pair allocates nothing, so it measures the
// per-batch set-up spread over the batch's pairs.
func BenchmarkDupFindNew(b *testing.B) {
	for _, c := range dupFindNewCases {
		b.Run(c.name, func(b *testing.B) { benchDupFindNew(b, c.minLen) })
	}
}

func benchDupFindNew(b *testing.B, minLen int) {
	var text strings.Builder
	if err := datagen.FastaDupReads(&text, 4000, 50, minLen, ingestBenchSeed); err != nil {
		b.Fatal(err)
	}
	db, err := flatfile.Parse("fasta", strings.NewReader(text.String()), "seqs")
	if err != nil {
		b.Fatal(err)
	}
	profs, err := profile.ProfileDatabase(db, profile.Options{})
	if err != nil {
		b.Fatal(err)
	}
	st, err := discovery.Analyze(db, profs, discovery.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	records := dup.RecordsFromSource(db, st)
	const batches = 8
	pairs, scored, flagged := 0, 0, 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := dup.NewIndex()
		for k := 0; k < batches; k++ {
			batch := records[k*len(records)/batches : (k+1)*len(records)/batches]
			_, stats, err := ix.FindNewContext(context.Background(), batch, dup.Options{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			pairs += stats.Comparisons
			scored += stats.Scored
			flagged += stats.Flagged
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if flagged == 0 {
		b.Fatal("no planted duplicate flagged")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pairs), "ns/pair")
	b.ReportMetric(float64(scored)/float64(pairs), "scored/pair")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(pairs), "allocs/pair")
}

// BenchmarkAddSourceScaling (E10): cost of adding one more source at
// increasing corpus sizes, serial (workers-1) vs parallel
// (workers-GOMAXPROCS). Both variants discover identical links and
// duplicates (asserted by TestParallelSerialParity in smoke_test.go).
func BenchmarkAddSourceScaling(b *testing.B) {
	workerCounts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	for _, n := range []int{50, 100, 200} {
		for _, workers := range workerCounts {
			b.Run(fmt.Sprintf("proteins-%d/workers-%d", n, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					corpus := datagen.Generate(datagen.Config{Seed: 99, Proteins: n})
					sys := core.New(core.Options{DisableSearchIndex: true, Workers: workers})
					if _, err := sys.AddSource(corpus.Source("pdb")); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if _, err := sys.AddSource(corpus.Source("swissprot")); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPruningAblation (E10): attribute-pair pruning on and off.
func BenchmarkPruningAblation(b *testing.B) {
	for _, variant := range []struct {
		name string
		opts linkdisc.Options
	}{
		{"pruned", linkdisc.Options{}},
		{"unpruned", linkdisc.Options{DisablePruning: true}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			var checked int
			for i := 0; i < b.N; i++ {
				corpus := datagen.Generate(datagen.Config{Seed: 99, Proteins: 100})
				sys := core.New(core.Options{Links: variant.opts, DisableSearchIndex: true})
				if _, err := sys.AddSource(corpus.Source("pdb")); err != nil {
					b.Fatal(err)
				}
				rep, err := sys.AddSource(corpus.Source("swissprot"))
				if err != nil {
					b.Fatal(err)
				}
				checked = rep.LinkStats.AttributePairsChecked
			}
			b.ReportMetric(float64(checked), "xref-pairs-checked")
		})
	}
}

// BenchmarkChangeThreshold (E11): re-analysis cost after threshold churn.
func BenchmarkChangeThreshold(b *testing.B) {
	corpus := datagen.Generate(datagen.Config{Seed: 99, Proteins: 40})
	sys := core.New(core.Options{DisableSearchIndex: true})
	for _, src := range corpus.Sources {
		if _, err := sys.AddSource(src); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Reanalyze("swissprot"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearch (E12): ranked full-text search latency.
func BenchmarkSearch(b *testing.B) {
	sys := integrateOnce(b)
	queries := []string{"hemoglobin oxygen", "catalase peroxide", "insulin glucose", "keratin filament"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs := sys.Search(queries[i%len(queries)], search.Filter{}, 10)
		if len(rs) == 0 {
			b.Fatal("no results")
		}
	}
}

// BenchmarkSearchBuild builds the search index of a 1,200-entry EMBL
// source and merges it into an empty index, as restoring the source
// does: every non-numeric, non-sequence value, owned by the entry its
// tuple belongs to. docs/op counts the indexed values; allocs/doc spreads
// the build and the merge over them — TestSearchAllocBudget holds it to
// ALLOC_budget.json.
func BenchmarkSearchBuild(b *testing.B) {
	var text strings.Builder
	if err := datagen.EMBLText(&text, 1200, 50, 7); err != nil {
		b.Fatal(err)
	}
	db, err := flatfile.Parse("embl", strings.NewReader(text.String()), "swissprot")
	if err != nil {
		b.Fatal(err)
	}
	src := linkSource(b, db)
	st, owners := src.Structure, src.Owners()
	var docs []search.Document
	for _, r := range db.Relations() {
		for ci, c := range r.Schema.Columns {
			if p := src.Profiles[profile.Key(r.Name, c.Name)]; p == nil || p.PurelyNumeric || p.IsSequenceField() {
				continue
			}
			for ti, t := range r.Tuples {
				if accs := owners.Of(r.Name, ti); len(accs) > 0 && !t[ci].IsNull() {
					docs = append(docs, search.Document{
						Object:   metadata.ObjectRef{Source: db.Name, Relation: st.Primary, Accession: accs[0]},
						Relation: r.Name, Column: c.Name, Text: t[ci].AsString(),
						Primary: strings.EqualFold(r.Name, st.Primary),
					})
				}
			}
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := search.NewIndex()
		for _, d := range docs {
			ix.Add(d)
		}
		search.NewIndex().Merge(ix)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(len(docs)), "docs/op")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*len(docs)), "allocs/doc")
}

var benchSys *core.System

func integrateOnce(b *testing.B) *core.System {
	b.Helper()
	if benchSys == nil {
		benchSys = integrate(b, 40, core.Options{OntologySources: []string{"go"}})
	}
	return benchSys
}

// BenchmarkBrowseRanking (E12): [BLM+04] path-based related-object
// ranking.
func BenchmarkBrowseRanking(b *testing.B) {
	sys := integrateOnce(b)
	start := metadata.ObjectRef{Source: "swissprot", Relation: "protein", Accession: "P10000"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if related := sys.Related(start, 2, 5); len(related) == 0 {
			b.Fatal("no related objects")
		}
	}
}

// BenchmarkSQLJoin: the warehouse SQL engine on a cross-source join.
func BenchmarkSQLJoin(b *testing.B) {
	sys := integrateOnce(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sys.Query(`
			SELECT p.accession, s.pdb_code
			FROM swissprot_protein p
			JOIN pdb_structure s ON s.structure_id = p.protein_id`)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("empty join")
		}
	}
}

// likeBenchDB caches 1,200 random DNA sequences of 150-249 bases, the
// shape of the sequences the benchmark's scan mix searches for motifs.
var likeBenchDB *rel.Database

const likeScanQuery = `SELECT COUNT(*) FROM sequence WHERE seq LIKE '%ACGTA%'`

func likeDB() *rel.Database {
	if likeBenchDB == nil {
		db := rel.NewDatabase("bench")
		r := db.Create("sequence", rel.NewSchema(rel.Column{Name: "seq", Kind: rel.KindString}))
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 1200; i++ {
			b := make([]byte, 150+rng.Intn(100))
			for j := range b {
				b[j] = "ACGT"[rng.Intn(4)]
			}
			r.Append(rel.Tuple{rel.Str(string(b))})
		}
		likeBenchDB = db
	}
	return likeBenchDB
}

// BenchmarkSQLLike: the scan mix's motif search, COUNT(*) of a
// '%ACGTA%' LIKE over 1,200 sequences through Prepare and OpenParallel at
// workers=1. The pattern is compiled once per plan, and matching a row
// allocates nothing, so allocs/op is per-query set-up
// (TestQueryAllocBudget holds it to like_scan).
func BenchmarkSQLLike(b *testing.B) {
	benchParallelQuery(b, likeDB(), likeScanQuery, 1, 1)
}

// filterBenchDB caches t(a, b): 100,000 rows of two INT columns.
var filterBenchDB *rel.Database

const filterScanQuery = `SELECT COUNT(*) FROM t WHERE A + B > 100 OR t.b = 2`

func filterDB() *rel.Database {
	if filterBenchDB == nil {
		db := rel.NewDatabase("bench")
		r := db.Create("t", rel.NewSchema(rel.Column{Name: "a", Kind: rel.KindInt}, rel.Column{Name: "b", Kind: rel.KindInt}))
		for i := 0; i < 100_000; i++ {
			r.Append(rel.Tuple{rel.Int(int64(i % 97)), rel.Int(int64(i % 11))})
		}
		filterBenchDB = db
	}
	return filterBenchDB
}

// BenchmarkSQLFilter: a two-predicate filtered scan, COUNT(*) over
// 100,000 rows through Prepare and OpenParallel at workers=1, with
// upper-case and qualified column names. Names resolve at Prepare, so a
// row's predicate reads its columns by index and allocates nothing;
// allocs/op is the scan's per-batch arenas (TestQueryAllocBudget holds it
// to filter_scan).
func BenchmarkSQLFilter(b *testing.B) {
	benchParallelQuery(b, filterDB(), filterScanQuery, 1, 1)
}

// indexJoinBenchDB caches entry(entry_id) and keyword(entry_id,
// keyword), the shape of the scan mix's keyword join: 1,200 entries,
// five keywords each from a vocabulary of 35, keyword.entry_id indexed.
var indexJoinBenchDB *rel.Database

const indexJoinQuery = `SELECT COUNT(*) FROM entry e JOIN keyword k ON k.entry_id = e.entry_id WHERE k.keyword = 'kw07'`

func indexJoinDB() *rel.Database {
	if indexJoinBenchDB == nil {
		db := rel.NewDatabase("bench")
		entry := db.Create("entry", rel.NewSchema(rel.Column{Name: "entry_id", Kind: rel.KindInt}))
		keyword := db.Create("keyword", rel.NewSchema(rel.Column{Name: "entry_id", Kind: rel.KindInt},
			rel.Column{Name: "keyword", Kind: rel.KindString}))
		for i := 0; i < 1200; i++ {
			entry.Append(rel.Tuple{rel.Int(int64(i))})
			for j := 0; j < 5; j++ {
				keyword.Append(rel.Tuple{rel.Int(int64(i)), rel.Str(fmt.Sprintf("kw%02d", (i*5+j)%35))})
			}
		}
		if _, err := keyword.EnsureIndex("entry_id"); err != nil {
			panic(err)
		}
		indexJoinBenchDB = db
	}
	return indexJoinBenchDB
}

// BenchmarkSQLIndexJoin: the scan mix's keyword join, an IndexJoin that
// probes keyword's entry_id index once per entry and tests the pushed
// right-side filter on each of the 6,000 probed tuples, through Prepare
// and OpenParallel at workers=1. The filter is compiled once per plan and
// a probed tuple allocates nothing, so allocs/op is per-query set-up
// (TestQueryAllocBudget holds it to index_join).
func BenchmarkSQLIndexJoin(b *testing.B) {
	benchParallelQuery(b, indexJoinDB(), indexJoinQuery, 1, 1)
}

// queryBenchDB caches one public-API database over the 200-protein
// corpus for the streaming-vs-materializing query benchmarks.
var queryBenchDB *aladin.DB

func queryDB(b *testing.B) *aladin.DB {
	b.Helper()
	if queryBenchDB == nil {
		corpus := datagen.Generate(datagen.Config{Seed: 99, Proteins: 200})
		db, err := aladin.Open(aladin.WithPlanCache(16))
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		for _, name := range []string{"swissprot", "pdb"} {
			if _, err := db.AddSource(ctx, corpus.Source(name)); err != nil {
				b.Fatal(err)
			}
		}
		queryBenchDB = db
	}
	return queryBenchDB
}

// BenchmarkQueryStream: a LIMIT 10 query through the streaming cursor —
// the executor stops after pulling only the tuples the 10 rows need
// (reported as scanned-tuples/op).
func BenchmarkQueryStream(b *testing.B) {
	db := queryDB(b)
	ctx := context.Background()
	var scanned int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := db.QueryRows(ctx, `SELECT accession, organism FROM swissprot_protein LIMIT 10`)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for rows.Next() {
			n++
		}
		if err := rows.Err(); err != nil {
			b.Fatal(err)
		}
		scanned = rows.Scanned()
		rows.Close()
		if n != 10 {
			b.Fatalf("got %d rows", n)
		}
	}
	b.ReportMetric(float64(scanned), "scanned-tuples/op")
}

// BenchmarkQueryMaterialize: the same 10 rows obtained the way the
// pre-streaming API had to — materialize the full result, keep the
// first 10. The gap versus BenchmarkQueryStream is the early-termination
// win, and it grows linearly with corpus size.
func BenchmarkQueryMaterialize(b *testing.B) {
	db := queryDB(b)
	ctx := context.Background()
	b.ResetTimer()
	var materialized int
	for i := 0; i < b.N; i++ {
		res, err := db.Query(ctx, `SELECT accession, organism FROM swissprot_protein`)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) < 10 {
			b.Fatalf("got %d rows", len(res.Rows))
		}
		_ = res.Rows[:10]
		materialized = len(res.Rows)
	}
	b.ReportMetric(float64(materialized), "scanned-tuples/op")
}

// Indexed-vs-scan benchmark fixtures: one integrated 200-protein
// warehouse snapshot (with the persistent hash indexes built by the
// pipeline) and a deep copy stripped of every index (Relation.Clone
// drops them) — the scan baseline for the same data and queries.
var (
	warehouse200        *rel.Database
	warehouse200NoIndex *rel.Database
)

func indexedAndScanWarehouses(b *testing.B) (*rel.Database, *rel.Database) {
	b.Helper()
	if warehouse200 == nil {
		sys := integrate(b, 200, core.Options{DisableSearchIndex: true})
		warehouse200 = sys.WarehouseSnapshot()
		stripped := rel.NewDatabase(warehouse200.Name)
		for _, r := range warehouse200.Relations() {
			stripped.Put(r.Clone())
		}
		warehouse200NoIndex = stripped
	}
	return warehouse200, warehouse200NoIndex
}

// benchCursorQuery opens and drains one prepared plan per iteration,
// reporting the stored tuples the execution read.
func benchCursorQuery(b *testing.B, db *rel.Database, q string, wantRows int) {
	b.Helper()
	ctx := context.Background()
	plan, err := sqlx.Prepare(db, q)
	if err != nil {
		b.Fatal(err)
	}
	var scanned int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur, err := plan.Open(ctx, db)
		if err != nil {
			b.Fatal(err)
		}
		rows := 0
		for {
			_, err := cur.Next(ctx)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			rows++
		}
		if rows != wantRows {
			b.Fatalf("got %d rows, want %d", rows, wantRows)
		}
		scanned = cur.Scanned()
	}
	b.ReportMetric(float64(scanned), "scanned-tuples/op")
}

// BenchmarkPointQuery: a primary-object equality lookup over the
// 200-protein corpus — the index access path probes one tuple where the
// scan baseline reads the whole relation.
func BenchmarkPointQuery(b *testing.B) {
	indexed, scan := indexedAndScanWarehouses(b)
	q := `SELECT entry_name, organism FROM swissprot_protein WHERE accession = 'P10042'`
	b.Run("index", func(b *testing.B) { benchCursorQuery(b, indexed, q, 1) })
	b.Run("scan", func(b *testing.B) { benchCursorQuery(b, scan, q, 1) })
}

// BenchmarkIndexedJoin: an FK join probe (swissprot protein to its PDB
// structure) — the index path touches tuples proportional to the result,
// the scan baseline reads both relations.
func BenchmarkIndexedJoin(b *testing.B) {
	indexed, scan := indexedAndScanWarehouses(b)
	q := `SELECT p.accession, s.pdb_code
	      FROM swissprot_protein p
	      JOIN pdb_structure s ON s.structure_id = p.protein_id
	      WHERE p.accession = 'P10042'`
	b.Run("index", func(b *testing.B) { benchCursorQuery(b, indexed, q, 1) })
	b.Run("scan", func(b *testing.B) { benchCursorQuery(b, scan, q, 1) })
}

// BenchmarkSQLParse: statement parsing throughput.
func BenchmarkSQLParse(b *testing.B) {
	q := `SELECT p.accession, COUNT(*) AS n FROM protein p JOIN dbref d ON d.protein_id = p.protein_id WHERE p.organism = 'Homo sapiens' GROUP BY p.accession HAVING COUNT(*) > 1 ORDER BY n DESC LIMIT 10`
	for i := 0; i < b.N; i++ {
		if _, err := sqlx.Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}
