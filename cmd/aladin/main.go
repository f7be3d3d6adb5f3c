// Command aladin is the command-line front end of the ALADIN system: it
// imports flat-file data sources, runs the five-step almost-automatic
// integration pipeline, and exposes the three access modes (browse,
// search, SQL query) of §4.6 — all through the public aladin package.
//
// Usage:
//
//	aladin demo                          integrate the synthetic corpus and report
//	aladin import <format> <file> <name> parse a source file and show its structure
//	                                     (formats: embl, genbank, fasta, obo, csv, tsv, xml)
//	aladin query "<sql>"                 run SQL over the integrated demo corpus
//	aladin explain [-analyze] "<sql>"    show the access plan the query would use
//	                                     (-analyze executes it and adds actual rows/times)
//	aladin search "<terms>"              ranked full-text search over the demo corpus
//	aladin browse <source> <accession>   show one object's web view
//	aladin stats                         repository statistics for the demo corpus
//	aladin save <data-dir>               integrate the demo corpus into a fresh data
//	                                     directory and checkpoint it
//	aladin load <data-dir>               recover a saved data directory, report it
//	aladin checkpoint <data-dir>         recover a durable directory and checkpoint it
//	aladin live [-format fasta] [-batch n] <file> [<name>]
//	                                     tail a growing flat file into a source until
//	                                     interrupted, committing batches as they fill
//
// Flags may be given before or after the subcommand: both
// `aladin -workers 4 demo` and `aladin demo -workers 4` work.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/aladin"
	"repro/internal/datagen"
	"repro/internal/discovery"
	"repro/internal/flatfile"
	"repro/internal/parallel"
	"repro/internal/profile"
	"repro/internal/store"
)

// workerCount is the -workers flag: the pipeline and query worker pool
// size (0 = all CPUs, 1 = serial).
var workerCount int

// analyzeFlag is the -analyze flag of the explain subcommand: execute
// the query and annotate the plan with actual rows and times.
var analyzeFlag bool

// formatFlag and batchFlag configure the live subcommand: the streaming
// flat-file format being tailed and the records per committed batch.
var (
	formatFlag = "fasta"
	batchFlag  int
)

func main() {
	global := newFlagSet("aladin")
	global.Usage = usage
	global.Parse(os.Args[1:])
	args := global.Args()
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	cmd, rest := args[0], args[1:]
	run, ok := commands()[cmd]
	if !ok {
		usage()
		os.Exit(2)
	}
	// Per-subcommand parse: flags placed after the subcommand
	// ("aladin demo -workers 4") are honored, not silently ignored.
	fs := newFlagSet("aladin " + cmd)
	fs.Parse(rest)
	if err := run(fs.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "aladin:", err)
		os.Exit(1)
	}
}

// newFlagSet defines the shared flags; later parses override earlier
// values, so global and per-subcommand placement both work.
func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	fs.IntVar(&workerCount, "workers", workerCount, "pipeline and query worker pool size (0 = all CPUs, 1 = serial)")
	fs.BoolVar(&analyzeFlag, "analyze", analyzeFlag, "with explain: execute the query and report actual rows and times")
	fs.StringVar(&formatFlag, "format", formatFlag, "with live: streaming flat-file format (embl, genbank, fasta, csv, tsv)")
	fs.IntVar(&batchFlag, "batch", batchFlag, "with live: records per committed batch (0 = default)")
	return fs
}

func commands() map[string]func([]string) error {
	return map[string]func([]string) error{
		"demo":       func(args []string) error { return cmdDemo() },
		"import":     cmdImport,
		"query":      cmdQuery,
		"explain":    cmdExplain,
		"search":     cmdSearch,
		"browse":     cmdBrowse,
		"stats":      func(args []string) error { return cmdStats() },
		"save":       cmdSave,
		"load":       cmdLoad,
		"checkpoint": cmdCheckpoint,
		"live":       cmdLive,
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: aladin [-workers n] <command> [flags] [args]

commands:
  demo                            integrate the synthetic corpus and report
  import <format> <file> <name>   parse and analyze one source file
  query "<sql>"                   SQL over the integrated demo corpus
  explain [-analyze] "<sql>"      show the access plan the query would use
                                  (-analyze executes it and adds actual rows/times)
  search "<terms>"                ranked full-text search (demo corpus)
  browse <source> <accession>     object web view (demo corpus)
  stats                           repository statistics (demo corpus)
  save <data-dir>                 integrate the demo corpus into a fresh data
                                  directory and checkpoint it
  load <data-dir>                 recover a saved data directory and report
                                  its contents
  checkpoint <data-dir>           recover a durable data directory and fold
                                  its write-ahead log into checkpoint segments
  live [-format f] [-batch n] <file> [<name>]
                                  tail a growing flat file into a source until
                                  Ctrl-C, committing batches as they fill

flags (accepted before or after the command):
  -workers n                      pipeline worker pool size (0 = all CPUs)

an argument beginning with "-" must follow a "--" terminator, e.g.
  aladin search -- "-terminal domain"`)
}

// demoDB integrates the standard synthetic corpus through the public API.
func demoDB(ctx context.Context) (*aladin.DB, error) {
	db, err := aladin.Open(aladin.WithOntologySources("go"), aladin.WithWorkers(workerCount))
	if err != nil {
		return nil, err
	}
	return db, integrateDemo(ctx, db)
}

// integrateDemo adds the standard synthetic corpus to db.
func integrateDemo(ctx context.Context, db *aladin.DB) error {
	for _, src := range datagen.Generate(datagen.Config{Seed: 1, Proteins: 40}).Sources {
		if _, err := db.AddSource(ctx, src); err != nil {
			return fmt.Errorf("integrating %s: %w", src.Name, err)
		}
	}
	return nil
}

func cmdDemo() error {
	ctx := context.Background()
	corpus := datagen.Generate(datagen.Config{Seed: 1, Proteins: 40})
	db, err := aladin.Open(aladin.WithOntologySources("go"), aladin.WithWorkers(workerCount))
	if err != nil {
		return err
	}
	fmt.Println("ALADIN demo: integrating the synthetic life-science corpus")
	fmt.Println()
	for _, src := range corpus.Sources {
		rep, err := db.AddSource(ctx, src)
		if err != nil {
			return fmt.Errorf("integrating %s: %w", src.Name, err)
		}
		fmt.Printf("source %-10s primary=%-10s accession=%-12s (%d relations, %d tuples)\n",
			src.Name, rep.Structure.Primary, rep.Structure.PrimaryAccession,
			src.Len(), src.TotalTuples())
		for _, t := range rep.Timings {
			fmt.Printf("    %-22s %v\n", t.Step, t.Duration)
		}
		if len(rep.LinksAdded) > 0 {
			var parts []string
			for _, k := range sortedKeys(rep.LinksAdded) {
				parts = append(parts, fmt.Sprintf("%s=%d", k, rep.LinksAdded[k]))
			}
			fmt.Printf("    new links: %s\n", strings.Join(parts, " "))
		}
	}
	fmt.Println()
	st, err := db.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("integrated %d sources, %d object links (%v), %d removed by feedback\n",
		st.Repo.Sources, st.Repo.Links, st.Repo.LinksByType, st.Repo.RemovedLinks)
	return nil
}

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func cmdImport(args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("usage: aladin import <format> <file> <name>")
	}
	format, path, name := args[0], args[1], args[2]
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	db, err := flatfile.Parse(format, f, name)
	if err != nil {
		return err
	}
	fmt.Printf("imported %s: %d relations, %d tuples\n", name, db.Len(), db.TotalTuples())
	profs, err := profile.ProfileDatabase(db, profile.Options{Workers: parallel.Workers(workerCount)})
	if err != nil {
		return err
	}
	st, err := discovery.Analyze(db, profs, discovery.DefaultOptions())
	if err != nil {
		return err
	}
	fmt.Print(st.Report())
	return nil
}

func cmdQuery(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: aladin query \"<sql>\"")
	}
	ctx := context.Background()
	db, err := demoDB(ctx)
	if err != nil {
		return err
	}
	// Stream rows to stdout as they are produced; a LIMIT query prints
	// its rows without materializing the full result first.
	rows, err := db.QueryRows(ctx, args[0])
	if err != nil {
		return err
	}
	defer rows.Close()
	fmt.Println(strings.Join(rows.Columns(), "\t"))
	n := 0
	for rows.Next() {
		fmt.Println(strings.Join(rows.RowStrings(), "\t"))
		n++
	}
	if err := rows.Err(); err != nil {
		return err
	}
	fmt.Printf("(%d rows)\n", n)
	return nil
}

func cmdExplain(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: aladin explain [-analyze] \"<sql>\"")
	}
	ctx := context.Background()
	db, err := demoDB(ctx)
	if err != nil {
		return err
	}
	var text string
	if analyzeFlag {
		text, err = db.ExplainAnalyze(ctx, args[0])
	} else {
		text, err = db.Explain(ctx, args[0])
	}
	if err != nil {
		return err
	}
	fmt.Print(text)
	return nil
}

func cmdSearch(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: aladin search \"<terms>\"")
	}
	ctx := context.Background()
	db, err := demoDB(ctx)
	if err != nil {
		return err
	}
	results, err := db.Search(ctx, args[0], aladin.SearchFilter{}, 10)
	if err != nil {
		return err
	}
	for i, r := range results {
		fmt.Printf("%2d. [%.2f] %s:%s (%s.%s)\n      %s\n", i+1, r.Score,
			r.Document.Object.Source, r.Document.Object.Accession,
			r.Document.Relation, r.Document.Column,
			aladin.Snippet(r, args[0], 70))
	}
	if len(results) == 0 {
		fmt.Println("no results")
	}
	return nil
}

func cmdBrowse(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: aladin browse <source> <accession>")
	}
	ctx := context.Background()
	db, err := demoDB(ctx)
	if err != nil {
		return err
	}
	info, err := db.Source(ctx, args[0])
	if err != nil {
		return err
	}
	ref := aladin.ObjectRef{Source: info.Name, Relation: info.Primary, Accession: args[1]}
	v, err := db.Browse(ctx, ref)
	if err != nil {
		return err
	}
	fmt.Printf("object %s\n", v.Ref)
	for _, k := range sortedFieldKeys(v.Fields) {
		fmt.Printf("  %-14s %s\n", k, v.Fields[k])
	}
	if v.PrevAccession != "" || v.NextAccession != "" {
		fmt.Printf("same relation: prev=%s next=%s\n", v.PrevAccession, v.NextAccession)
	}
	if len(v.Annotations) > 0 {
		fmt.Printf("annotations (%d secondary objects):\n", len(v.Annotations))
		for _, a := range v.Annotations {
			fmt.Printf("  [%s] %v\n", a.Relation, a.Fields)
		}
	}
	for _, l := range v.Linked {
		fmt.Printf("linked: %s -> %s (%s, conf %.2f)\n", l.From, l.To, l.Method, l.Confidence)
	}
	for _, l := range v.Duplicates {
		fmt.Printf("duplicate: %s ~ %s (conf %.2f)\n", l.From, l.To, l.Confidence)
	}
	return nil
}

func sortedFieldKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// cmdSave integrates the demo corpus into a fresh data directory and
// checkpoints it: the directory — MANIFEST, segments and an empty WAL —
// is the saved warehouse, which `aladin load` and `aladind -data` open.
func cmdSave(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: aladin save <data-dir>")
	}
	ctx := context.Background()
	db, err := aladin.Open(aladin.WithOntologySources("go"),
		aladin.WithWorkers(workerCount), aladin.WithDataDir(args[0]))
	if err != nil {
		return err
	}
	defer db.Close()
	infos, err := db.Sources(ctx)
	if err != nil {
		return err
	}
	if len(infos) > 0 {
		return fmt.Errorf("%s already holds %d sources; save needs a fresh directory", args[0], len(infos))
	}
	if err := integrateDemo(ctx, db); err != nil {
		return err
	}
	if err := db.Checkpoint(ctx); err != nil {
		return err
	}
	st, err := db.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("saved %d sources and %d links to %s\n", st.Repo.Sources, st.Repo.Links, args[0])
	return nil
}

// cmdLoad recovers a saved data directory and reports its contents.
func cmdLoad(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: aladin load <data-dir>")
	}
	// Opening a directory without a manifest would initialize an empty
	// warehouse there; a mistyped path is an error instead.
	if _, err := os.Stat(filepath.Join(args[0], store.ManifestName)); err != nil {
		return fmt.Errorf("%s is not a data directory: %w", args[0], err)
	}
	ctx := context.Background()
	db, err := aladin.Open(aladin.WithOntologySources("go"),
		aladin.WithWorkers(workerCount), aladin.WithDataDir(args[0]))
	if err != nil {
		return err
	}
	defer db.Close()
	st, err := db.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("restored %d sources, %d links %v\n", st.Repo.Sources, st.Repo.Links, st.Repo.LinksByType)
	fmt.Printf("object web: %d objects, %d components, mean degree %.1f\n",
		st.Web.Objects, st.Web.Components, st.Web.MeanDegree)
	return nil
}

// cmdCheckpoint recovers a durable data directory — last checkpoint plus
// WAL tail — and folds the tail into fresh checkpoint segments, so the
// next open replays nothing. Useful after killing an aladind that had no
// chance to checkpoint.
func cmdCheckpoint(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: aladin checkpoint <data-dir>")
	}
	ctx := context.Background()
	db, err := aladin.Open(aladin.WithOntologySources("go"),
		aladin.WithWorkers(workerCount), aladin.WithDataDir(args[0]))
	if err != nil {
		return err
	}
	defer db.Close()
	before, err := db.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("recovered %d sources, %d links, %d WAL records from %s\n",
		before.Repo.Sources, before.Repo.Links, before.Durability.WALRecords, args[0])
	if err := db.Checkpoint(ctx); err != nil {
		return err
	}
	after, err := db.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("checkpoint generation %d: %d source segments, WAL empty\n",
		after.Durability.Gen, after.Durability.Sources)
	return nil
}

// cmdLive tails a growing flat file into a source until interrupted:
// existing content streams in immediately, records appended to the file
// afterwards are committed as batches fill. Ctrl-C stops the tail; the
// final partial batch is committed before exit — the live end of the
// streaming ingestion subsystem, for watching a download or an
// instrument write records while they become queryable.
func cmdLive(args []string) error {
	if len(args) < 1 || len(args) > 2 {
		return fmt.Errorf("usage: aladin live [-format f] [-batch n] <file> [<name>]")
	}
	path := args[0]
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	if len(args) == 2 {
		name = args[1]
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	db, err := aladin.Open(aladin.WithWorkers(workerCount))
	if err != nil {
		return err
	}
	defer db.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("tailing %s into source %q (%s); Ctrl-C to stop\n", path, name, formatFlag)
	// The tail reader blocks at end-of-file until more data arrives and
	// reports EOF when the signal context fires; the ingest run itself is
	// not canceled, so the final partial batch still commits.
	tail := aladin.NewTailReader(ctx, f, 0)
	rep, err := db.IngestSource(context.Background(), name, formatFlag, tail,
		aladin.WithBatchRecords(batchFlag),
		aladin.WithFlushStall(500*time.Millisecond),
		aladin.WithIngestProgress(func(p aladin.IngestProgress) {
			fmt.Printf("  batch %d: %d records, %d tuples, %d bytes, seq %d\n",
				p.Batch, p.Records, p.Tuples, p.Bytes, p.Seq)
		}))
	if rep != nil {
		fmt.Printf("ingested %d records (%d tuples) in %d batches, %d links\n",
			rep.Records, rep.Tuples, rep.Batches, rep.Links)
	}
	return err
}

func cmdStats() error {
	ctx := context.Background()
	db, err := demoDB(ctx)
	if err != nil {
		return err
	}
	st, err := db.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("sources: %d\n", st.Repo.Sources)
	fmt.Printf("links:   %d\n", st.Repo.Links)
	for _, k := range sortedKeys(st.Repo.LinksByType) {
		fmt.Printf("  %-10s %d\n", k, st.Repo.LinksByType[k])
	}
	infos, err := db.Sources(ctx)
	if err != nil {
		return err
	}
	for _, m := range infos {
		fmt.Printf("source %-10s primary=%-10s tuples=%d\n", m.Name, m.Primary, m.Tuples)
	}
	fmt.Printf("object web: %d objects (%d linked), %d components (largest %d), mean degree %.1f\n",
		st.Web.Objects, st.Web.LinkedObjects, st.Web.Components, st.Web.LargestComponent, st.Web.MeanDegree)
	return nil
}
