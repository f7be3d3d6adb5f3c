package main

// The traced run. After the untraced HTTP run has produced the end-to-end
// numbers, the same generated inputs are replayed in this process, twice:
//
//   - the shadow pass calls each layer's public functions directly, in the
//     order internal/core composes them, with a span around every call —
//     this is where a layer's busy time, counts and quality come from;
//   - the real pass drives internal/core itself (prepare, commit,
//     checkpoint, recover), package repl, and then the read path at three
//     depths (aladin facade, core access modes, sqlx), so that facade and
//     HTTP overheads can be derived by subtraction.
//
// Spans live in memory and are written to bench/out/trace-<workload>.json
// when the run ends.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/aladin"
	"repro/bench/corpus"
	"repro/bench/server"
	"repro/bench/stats"
	"repro/bench/trace"
	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/dup"
	"repro/internal/flatfile"
	"repro/internal/ind"
	"repro/internal/ingest"
	"repro/internal/linkdisc"
	"repro/internal/metadata"
	"repro/internal/objectweb"
	"repro/internal/profile"
	"repro/internal/rel"
	"repro/internal/repl"
	"repro/internal/search"
	"repro/internal/sqlx"
	"repro/internal/store"
)

// sqlClasses are the read classes that are SQL statements; every one has
// its own sqlx.* metrics. httpClasses are all read classes.
var (
	sqlClasses  = []string{"point", "like", "join", "group", "distinct", "order"}
	httpClasses = append([]string{"object", "related", "search"}, sqlClasses...)
)

// perLayer lists the metrics of BENCHMARK.json's per_layer section, which
// a traced run reports. A layer a workload does not exercise reports 0.
var perLayer = func() []metricDef {
	m := func(name, unit, better string) metricDef { return metricDef{name: name, unit: unit, better: better} }
	defs := append([]metricDef(nil), httpRunLayer...)
	defs = append(defs,
		m("flatfile.scan_s", "s", lower), m("flatfile.mb_per_s", "MB/s", higher), m("flatfile.records", "count", higher),
		m("ingest.batch_s", "s", lower), m("ingest.batches", "count", lower),
		m("profile.busy_s", "s", lower),
		m("ind.busy_s", "s", lower), m("ind.pairs_checked", "count", lower), m("ind.pairs_pruned_share", "ratio", higher),
		m("discovery.busy_s", "s", lower), m("discovery.structure_correct", "ratio", higher),
		m("linkdisc.busy_s", "s", lower), m("linkdisc.seq_comparisons", "count", lower),
		m("linkdisc.text_comparisons", "count", lower), m("linkdisc.us_per_seq_pair", "us", lower),
		m("linkdisc.links_per_comparison", "ratio", higher), m("linkdisc.xref_f1", "0..1", higher), m("linkdisc.seq_f1", "0..1", higher),
		m("dup.busy_s", "s", lower), m("dup.comparisons", "count", lower), m("dup.flagged_per_comparison", "ratio", higher),
		m("dup.f1", "0..1", higher),
		m("search.build_s", "s", lower), m("search.query_us", "us", lower),
		m("objectweb.prepare_s", "s", lower), m("objectweb.object_us", "us", lower), m("objectweb.related_us", "us", lower),
		m("core.prepare_s", "s", lower), m("core.commit_s", "s", lower), m("core.commit_lock_hold_ms", "ms", lower),
		m("core.recover_s", "s", lower),
		m("store.wal_encode_s", "s", lower), m("store.wal_append_ms", "ms", lower), m("store.fsyncs", "count", lower),
		m("store.wal_bytes_per_user_byte", "ratio", lower), m("store.checkpoint_s", "s", lower),
		m("store.checkpoint_bytes", "bytes", lower), m("store.load_s", "s", lower),
		m("rel.index_lookup_ns", "ns", lower), m("rel.hash_ns_per_tuple", "ns", lower),
		m("aladin.query_cold_us", "us", lower), m("aladin.query_warm_us", "us", lower), m("aladin.self_us", "us", lower),
		m("aladind.encode_us_per_row", "us", lower),
		m("repl.bootstrap_bytes", "bytes", lower), m("repl.wal_fetch_ms", "ms", lower), m("repl.apply_ms", "ms", lower),
		m("loadgen.late_ms_p99", "ms", lower), m("trace.coverage", "ratio", higher), m("trace.inproc_over_http", "ratio", higher),
	)
	for _, c := range sqlClasses {
		defs = append(defs, m("sqlx.prepare_us."+c, "us", lower), m("sqlx.open_us."+c, "us", lower),
			m("sqlx.exec_us."+c, "us", lower), m("sqlx.scanned_per_row."+c, "ratio", lower))
	}
	for _, c := range httpClasses {
		defs = append(defs, m("aladind.self_us."+c, "us", lower))
	}
	return defs
}()

const (
	// checkpointEvery mirrors server.CheckpointEvery8 for the in-process
	// primary of the real pass.
	checkpointEvery = server.CheckpointEvery8
	// readsPerClass is how many reads of each class the real pass replays.
	readsPerClass = 200
	// relProbes is how many index lookups the rel micro-measurement makes.
	relProbes = 20000
)

type replayer struct {
	sp      *spec
	o       *outcome
	rec     *trace.Recorder
	ctx     context.Context
	work    string
	workers int
	nextReq int
}

// span runs fn inside a span and returns how long it took.
func (r *replayer) span(req, parent int, layer, op string, fn func(id int)) time.Duration {
	id := r.rec.Begin(req, parent, layer, op)
	fn(id)
	return r.rec.End(id)
}

func (r *replayer) request() int {
	r.nextReq++
	return r.nextReq
}

// replay runs both in-process passes over the outcome's inputs and adds
// the per-layer metrics to it.
func replay(e *env, sp *spec, o *outcome) error {
	work, err := os.MkdirTemp(e.work, sp.name+"-inproc-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	for _, d := range perLayer {
		if _, ok := o.metrics[d.name]; !ok {
			o.metrics[d.name] = 0
		}
	}
	r := &replayer{sp: sp, o: o, rec: trace.New(), ctx: context.Background(), work: work, workers: runtime.GOMAXPROCS(0)}
	shadowSelf, err := r.shadow()
	if err != nil {
		return fmt.Errorf("shadow pass: %w", err)
	}
	realLoad, err := r.real()
	if err != nil {
		return fmt.Errorf("real pass: %w", err)
	}
	o.metrics["trace.coverage"] = shadowSelf.Seconds() / realLoad.Seconds()
	o.metrics["trace.inproc_over_http"] = realLoad.Seconds() / o.metrics["integrate_s"]

	out := filepath.Join(e.root, "bench", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	return r.rec.WriteFile(filepath.Join(out, "trace-"+sp.name+".json"))
}

// --- shadow pass -----------------------------------------------------

// shadowState is the pipeline state internal/core keeps in a System,
// held here by the harness so that it can call the layers one by one.
type shadowState struct {
	repo    *metadata.Repo
	web     *objectweb.Web
	engine  *linkdisc.Engine
	dupIx   *dup.Index
	index   *search.Index
	dir     *store.Dir
	seq     uint64
	sources map[string]*shadowSource

	// what the layers reported
	links      []metadata.Link // every link link discovery returned
	dupLinks   []metadata.Link
	linkStats  linkdisc.Stats
	dupStats   dup.Stats
	indStats   ind.Stats
	seqPairs   float64 // cross-source sequence pairs link discovery faced
	walBytes   int64
	appendMS   []float64
	correct    int // sources whose discovered structure matches the generator's
	batches    int
	scanBytes  int64
	scanRecord int
}

type shadowSource struct {
	db    *rel.Database
	st    *discovery.Structure
	profs map[string]*profile.ColumnProfile
	seqs  int // sequences it holds
}

// tracedScanner wraps a flatfile.Scanner with one span per Next.
type tracedScanner struct {
	flatfile.Scanner
	r           *replayer
	req, parent int
}

func (t *tracedScanner) Next() (rec flatfile.Record, err error) {
	t.r.span(t.req, t.parent, "flatfile", "Scanner.Next", func(int) { rec, err = t.Scanner.Next() })
	return rec, err
}

// shadow replays the load phase through the layers' public functions and
// returns the summed self time of its spans.
func (r *replayer) shadow() (time.Duration, error) {
	dir, err := store.OpenDir(filepath.Join(r.work, "shadow"))
	if err != nil {
		return 0, err
	}
	defer dir.Close()
	repo := metadata.NewRepo()
	sh := &shadowState{
		repo: repo, web: objectweb.New(repo), engine: linkdisc.New(linkdisc.Options{Workers: r.workers}),
		dupIx: dup.NewIndex(), index: search.NewIndex(), dir: dir, sources: map[string]*shadowSource{},
	}
	var userBytes int64
	for _, f := range r.o.files {
		userBytes += int64(len(f.Text))
		if err := r.shadowUpload(sh, f); err != nil {
			return 0, fmt.Errorf("%s: %w", f.Source, err)
		}
	}

	self := trace.SelfTimes(r.rec.Spans())
	m := r.o.metrics
	m["flatfile.scan_s"] = self["flatfile"].Seconds()
	m["flatfile.records"] = float64(sh.scanRecord)
	if s := self["flatfile"].Seconds(); s > 0 {
		m["flatfile.mb_per_s"] = float64(sh.scanBytes) / 1e6 / s
	}
	m["ingest.batch_s"] = self["ingest"].Seconds()
	m["ingest.batches"] = float64(sh.batches)
	m["profile.busy_s"] = self["profile"].Seconds()
	m["ind.busy_s"] = self["ind"].Seconds()
	m["ind.pairs_checked"] = float64(sh.indStats.PairsChecked)
	if sh.indStats.PairsConsidered > 0 {
		m["ind.pairs_pruned_share"] = float64(sh.indStats.PairsPruned) / float64(sh.indStats.PairsConsidered)
	}
	m["discovery.busy_s"] = self["discovery"].Seconds()
	m["discovery.structure_correct"] = float64(sh.correct) / float64(len(r.o.files))
	m["linkdisc.busy_s"] = self["linkdisc"].Seconds()
	m["linkdisc.seq_comparisons"] = float64(sh.linkStats.SequenceComparisons)
	m["linkdisc.text_comparisons"] = float64(sh.linkStats.TextComparisons)
	if sh.seqPairs > 0 {
		m["linkdisc.us_per_seq_pair"] = float64(self["linkdisc"].Microseconds()) / sh.seqPairs
	}
	if c := sh.linkStats.SequenceComparisons + sh.linkStats.TextComparisons + sh.linkStats.AttributePairsChecked; c > 0 {
		m["linkdisc.links_per_comparison"] = float64(sh.linkStats.Links) / float64(c)
	}
	m["linkdisc.xref_f1"] = typeF1(sh.links, r.o.gold, corpus.XRef)
	m["linkdisc.seq_f1"] = typeF1(sh.links, r.o.gold, corpus.Sequence)
	m["dup.busy_s"] = self["dup"].Seconds()
	m["dup.comparisons"] = float64(sh.dupStats.Comparisons)
	if sh.dupStats.Comparisons > 0 {
		m["dup.flagged_per_comparison"] = float64(sh.dupStats.Flagged) / float64(sh.dupStats.Comparisons)
	}
	m["dup.f1"] = typeF1(sh.dupLinks, r.o.gold, corpus.Duplicate)
	m["search.build_s"] = self["search"].Seconds()
	m["objectweb.prepare_s"] = self["objectweb"].Seconds()
	m["store.wal_encode_s"] = spanTime(r.rec.Spans(), "store", "EncodeRecord").Seconds()
	m["store.wal_append_ms"] = stats.Median(sh.appendMS)
	m["store.fsyncs"] = float64(len(sh.appendMS)) // every append is fsynced before it returns
	m["store.wal_bytes_per_user_byte"] = float64(sh.walBytes) / float64(userBytes)

	// The stand-alone ind call repeats work discovery does inside
	// AnalyzeContext; it must not count twice towards the coverage.
	var total time.Duration
	for layer, d := range self {
		if layer != "ind" {
			total += d
		}
	}
	return total, nil
}

// spanTime sums the durations of the spans of one operation.
func spanTime(spans []trace.Span, layer, op string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Layer == layer && s.Op == op {
			d += time.Duration(s.End - s.Start)
		}
	}
	return d
}

// typeF1 scores the links of one type among found against the gold links
// of that type; 0 when the gold has none.
func typeF1(found []metadata.Link, gold []corpus.Link, typ string) float64 {
	want := map[corpus.Link]bool{}
	for _, l := range gold {
		if l.Type == typ {
			want[l] = true
		}
	}
	got := map[corpus.Link]bool{}
	for _, l := range found {
		if l.Type.String() == typ {
			got[corpus.NewLink(typ, corpus.Ref{Source: l.From.Source, Accession: l.From.Accession},
				corpus.Ref{Source: l.To.Source, Accession: l.To.Accession})] = true
		}
	}
	tp := 0
	for l := range got {
		if want[l] {
			tp++
		}
	}
	return f1(tp, len(got), len(want))
}

// shadowUpload pushes one file through scanner, batcher and the per-batch
// pipeline.
func (r *replayer) shadowUpload(sh *shadowState, f *corpus.File) error {
	req := r.request()
	sh.scanBytes += int64(len(f.Text))
	if !flatfile.Streamable(f.Format) {
		var db *rel.Database
		var err error
		r.span(req, 0, "flatfile", "Parse", func(int) { db, err = flatfile.Parse(f.Format, bytes.NewReader(f.Text), f.Source) })
		if err != nil {
			return err
		}
		sh.scanRecord += f.Records()
		return r.shadowBatch(sh, req, 0, f, db)
	}
	var runErr error
	r.span(req, 0, "ingest", "Runner.Run", func(root int) {
		sc, err := flatfile.NewScanner(f.Format, bytes.NewReader(f.Text))
		if err != nil {
			runErr = err
			return
		}
		runner := &ingest.Runner{
			Scanner: &tracedScanner{Scanner: sc, r: r, req: req, parent: root},
			Opts:    ingest.Options{BatchRecords: streamBatch},
			Commit: func(_ context.Context, batch *rel.Database) (ingest.CommitInfo, error) {
				return ingest.CommitInfo{}, r.shadowBatch(sh, req, root, f, batch)
			},
		}
		sum, err := runner.Run(r.ctx)
		if err != nil {
			runErr = err
			return
		}
		sh.scanRecord += sum.Records
	})
	return runErr
}

// shadowBatch is internal/core's PrepareAdd+CommitAdd (first batch of a
// source) or PrepareAppend+CommitAppend (later batches), spelled out as
// calls into the layers.
func (r *replayer) shadowBatch(sh *shadowState, req, parent int, f *corpus.File, batch *rel.Database) error {
	batch.Name = f.Source
	key := strings.ToLower(f.Source)
	src, first := sh.sources[key], false
	var err error
	do := func(layer, op string, fn func()) {
		if err == nil {
			r.span(req, parent, layer, op, func(int) { fn() })
		}
	}
	sh.batches++

	// Steps 2 and 3 run on the first batch only; later batches reuse the
	// discovered structure.
	if src == nil {
		first = true
		src = &shadowSource{db: batch}
		popts := profile.Options{Workers: r.workers}
		do("profile", "ProfileDatabaseContext", func() { src.profs, err = profile.ProfileDatabaseContext(r.ctx, batch, popts) })
		dopts := discovery.DefaultOptions()
		dopts.IND.Workers = r.workers
		do("ind", "DiscoverContext", func() { _, _, err = ind.DiscoverContext(r.ctx, batch, src.profs, dopts.IND) })
		do("discovery", "AnalyzeContext", func() { src.st, err = discovery.AnalyzeContext(r.ctx, batch, src.profs, dopts) })
		if err != nil {
			return err
		}
		if src.st.Primary == "" {
			return fmt.Errorf("no primary relation discovered")
		}
		sh.indStats.PairsConsidered += src.st.INDStats.PairsConsidered
		sh.indStats.PairsPruned += src.st.INDStats.PairsPruned
		sh.indStats.PairsChecked += src.st.INDStats.PairsChecked
		if src.st.Primary == f.Primary && src.st.PrimaryAccession == f.AccessionColumn {
			sh.correct++
		}
	}

	// Step 4: link discovery, both directions, against the other sources.
	lsrc := &linkdisc.Source{DB: batch, Structure: src.st, Profiles: src.profs}
	var links, ontLinks []metadata.Link
	var lstats linkdisc.Stats
	if first {
		do("linkdisc", "DiscoverAgainst", func() { links, _, lstats, err = sh.engine.DiscoverAgainst(r.ctx, lsrc) })
	} else {
		do("linkdisc", "DiscoverAppended", func() { links, _, lstats, err = sh.engine.DiscoverAppended(r.ctx, lsrc) })
	}
	do("linkdisc", "DeriveOntologyLinks", func() {
		ontLinks = sh.engine.DeriveOntologyLinks(append(sh.repo.AllLinks(), links...), "go")
	})
	if err != nil {
		return err
	}
	sh.links = append(sh.links, links...)
	sh.linkStats.AttributePairsChecked += lstats.AttributePairsChecked
	sh.linkStats.SequenceComparisons += lstats.SequenceComparisons
	sh.linkStats.TextComparisons += lstats.TextComparisons
	sh.linkStats.Links += lstats.Links
	if seqs := sequencesIn(batch, src.profs); seqs > 0 {
		for k, other := range sh.sources {
			if k != key {
				sh.seqPairs += float64(seqs) * float64(other.seqs)
			}
		}
		src.seqs += seqs
	}

	// Step 5: duplicate detection against everything bucketed so far.
	var records []dup.Record
	var matches []dup.Match
	var dstats dup.Stats
	do("dup", "RecordsFromSource", func() { records = dup.RecordsFromSource(batch, src.st) })
	do("dup", "Index.FindNewContext", func() {
		matches, dstats, err = sh.dupIx.FindNewContext(r.ctx, records, dup.Options{Workers: r.workers})
	})
	if err != nil {
		return err
	}
	dupLinks := dup.Links(matches)
	sh.dupLinks = append(sh.dupLinks, dupLinks...)
	sh.dupStats.Comparisons += dstats.Comparisons
	sh.dupStats.Flagged += dstats.Flagged

	// Browse data, search postings and the WAL frame.
	var web *objectweb.Prepared
	if first {
		do("objectweb", "Web.Prepare", func() { web, err = sh.web.Prepare(batch, src.st) })
	} else {
		do("objectweb", "Web.PrepareAppend", func() { web, err = sh.web.PrepareAppend(f.Source, accessions(batch, src.st)) })
	}
	ix := search.NewIndex()
	do("search", "Index.Add", func() {
		for _, d := range searchDocs(batch, src.st, src.profs) {
			ix.Add(d)
		}
	})
	all := append(append(append([]metadata.Link(nil), links...), ontLinks...), dupLinks...)
	wal := &store.WALRecord{Type: store.RecAppend, Links: all, Source: &store.SourceSnapshot{
		Name: f.Source, TupleCount: batch.TotalTuples()}}
	if first {
		wal.Type, wal.Source.Structure, wal.Source.Profiles = store.RecAddSource, src.st, src.profs
	}
	var frame []byte
	do("store", "EncodeRecord", func() {
		wal.Source.Relations = store.SnapshotDatabase(batch)
		frame, err = store.EncodeRecord(wal)
	})
	if err != nil {
		return err
	}

	// Commit: journal, then publish to every access mode.
	sh.seq++
	sh.appendMS = append(sh.appendMS, float64(r.span(req, parent, "store", "Dir.Append", func(int) {
		err = sh.dir.Append(frame, sh.seq)
	}))/1e6)
	sh.walBytes += int64(len(frame))
	if first {
		do("linkdisc", "Engine.AddSource", func() { err = sh.engine.AddSource(lsrc) })
		sh.sources[key] = src
	} else {
		do("rel", "AppendBranch", func() {
			for _, br := range batch.Relations() {
				grown := src.db.Relation(br.Name).AppendBranch()
				for _, t := range br.Tuples {
					grown.Append(t)
				}
				src.db.Put(grown)
			}
		})
		do("linkdisc", "Engine.RefreshResolver", func() { sh.engine.RefreshResolver(f.Source) })
	}
	do("metadata", "Repo.AddLinkTracked", func() {
		for _, l := range all {
			sh.repo.AddLinkTracked(l)
		}
		sh.repo.RegisterSource(&metadata.SourceMeta{Name: f.Source, Structure: src.st, Profiles: src.profs,
			TupleCount: src.db.TotalTuples()})
	})
	do("objectweb", "Web.Install", func() { sh.web.Install(web) })
	do("search", "Index.Merge", func() { sh.index.Merge(ix) })
	return err
}

// sequencesIn counts the values of a batch that sit in sequence-typed
// columns (§4.4), the ones cross-source sequence comparison aligns.
func sequencesIn(batch *rel.Database, profs map[string]*profile.ColumnProfile) int {
	n := 0
	for _, rl := range batch.Relations() {
		for _, c := range rl.Schema.Columns {
			if p := profs[profile.Key(rl.Name, c.Name)]; p != nil && p.IsSequenceField() {
				n += len(rl.Tuples)
			}
		}
	}
	return n
}

func accessions(batch *rel.Database, st *discovery.Structure) []string {
	pr := batch.Relation(st.Primary)
	ai := pr.Schema.Index(st.PrimaryAccession)
	out := make([]string, 0, len(pr.Tuples))
	for _, t := range pr.Tuples {
		if !t[ai].IsNull() {
			out = append(out, t[ai].AsString())
		}
	}
	return out
}

// searchDocs lists the values internal/core would index for a batch: every
// non-numeric, non-sequence value, owned by the primary object its tuple
// belongs to. Ownership follows the generated schemas: a dependent
// relation either repeats the accession column or shares a surrogate key
// column with the primary relation.
func searchDocs(batch *rel.Database, st *discovery.Structure, profs map[string]*profile.ColumnProfile) []search.Document {
	pr := batch.Relation(st.Primary)
	ai := pr.Schema.Index(st.PrimaryAccession)
	var docs []search.Document
	for _, rl := range batch.Relations() {
		owner := func(rel.Tuple) string { return "" }
		switch oi := rl.Schema.Index(st.PrimaryAccession); {
		case rl == pr:
			owner = func(t rel.Tuple) string { return t[ai].AsString() }
		case oi >= 0:
			owner = func(t rel.Tuple) string { return t[oi].AsString() }
		default:
			for ci, c := range rl.Schema.Columns {
				pi := pr.Schema.Index(c.Name)
				if pi < 0 {
					continue
				}
				byKey := make(map[string]string, len(pr.Tuples))
				for _, t := range pr.Tuples {
					byKey[t[pi].AsString()] = t[ai].AsString()
				}
				owner = func(t rel.Tuple) string { return byKey[t[ci].AsString()] }
				break
			}
		}
		for ci, c := range rl.Schema.Columns {
			p := profs[profile.Key(rl.Name, c.Name)]
			if p == nil || p.PurelyNumeric || p.IsSequenceField() {
				continue
			}
			for _, t := range rl.Tuples {
				acc := owner(t)
				if t[ci].IsNull() || acc == "" {
					continue
				}
				docs = append(docs, search.Document{
					Object:   metadata.ObjectRef{Source: batch.Name, Relation: st.Primary, Accession: acc},
					Relation: rl.Name, Column: c.Name, Text: t[ci].AsString(), Primary: rl == pr,
				})
			}
		}
	}
	return docs
}

// --- real pass -------------------------------------------------------

// ingestInto streams f into sys the way aladin.IngestSource does (scanner,
// batcher, prepare, commit, count-triggered checkpoint), with spans around
// the calls into core. after runs after every commit.
func (r *replayer) ingestInto(sys *core.System, f *corpus.File, batchRecords int, checkpoints bool, after func() error) error {
	req := r.request()
	exists := false
	for _, name := range sys.Sources() {
		exists = exists || strings.EqualFold(name, f.Source)
	}
	commit := func(_ context.Context, batch *rel.Database) (ingest.CommitInfo, error) {
		batch.Name = f.Source
		var err error
		if !exists {
			var p *core.PendingAdd
			r.span(req, 0, "core", "PrepareAdd", func(int) { p, err = sys.PrepareAdd(r.ctx, batch) })
			if err != nil {
				return ingest.CommitInfo{}, err
			}
			r.span(req, 0, "core", "CommitAdd", func(int) { _, err = sys.CommitAdd(p) })
			exists = true
		} else {
			var p *core.PendingAppend
			r.span(req, 0, "core", "PrepareAppend", func(int) { p, err = sys.PrepareAppend(r.ctx, f.Source, batch) })
			if err != nil {
				return ingest.CommitInfo{}, err
			}
			r.span(req, 0, "core", "CommitAppend", func(int) { _, err = sys.CommitAppend(p) })
		}
		if err == nil && checkpoints && sys.WALRecordsSinceCheckpoint() >= checkpointEvery {
			err = r.checkpoint(sys, req)
		}
		if err == nil && after != nil {
			err = after()
		}
		return ingest.CommitInfo{}, err
	}
	if !flatfile.Streamable(f.Format) {
		db, err := flatfile.Parse(f.Format, bytes.NewReader(f.Text), f.Source)
		if err != nil {
			return err
		}
		_, err = commit(r.ctx, db)
		return err
	}
	sc, err := flatfile.NewScanner(f.Format, bytes.NewReader(f.Text))
	if err != nil {
		return err
	}
	runner := &ingest.Runner{Scanner: sc, Commit: commit, Opts: ingest.Options{BatchRecords: batchRecords}}
	_, err = runner.Run(r.ctx)
	return err
}

func (r *replayer) checkpoint(sys *core.System, req int) error {
	var err error
	r.span(req, 0, "store", "Checkpoint", func(int) {
		var cp *core.PendingCheckpoint
		if cp, err = sys.BeginCheckpoint(); err == nil {
			err = sys.WriteCheckpoint(cp)
		}
	})
	return err
}

// real drives internal/core through the run's life cycle in this process
// and returns the wall time of its load phase.
func (r *replayer) real() (time.Duration, error) {
	m := r.o.metrics
	opts := core.Options{OntologySources: []string{"go"}}
	primaryDir := filepath.Join(r.work, "primary")

	// Load, with count-triggered checkpoints, then the shutdown checkpoint.
	dir, err := store.OpenDir(primaryDir)
	if err != nil {
		return 0, err
	}
	sys := core.New(opts)
	sys.AttachDurable(dir)
	t0 := time.Now()
	for _, f := range r.o.files {
		if err := r.ingestInto(sys, f, streamBatch, true, nil); err != nil {
			dir.Close()
			return 0, fmt.Errorf("loading %s: %w", f.Source, err)
		}
	}
	load := time.Since(t0)
	err = r.checkpoint(sys, r.request())
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	chk, err := server.DirBytes(primaryDir)
	if err != nil {
		return 0, err
	}
	m["store.checkpoint_bytes"] = float64(chk)

	// Recovery: segment load alone, then the whole of core.Recover.
	if dir, err = store.OpenDir(primaryDir); err != nil {
		return 0, err
	}
	defer dir.Close()
	req := r.request()
	m["store.load_s"] = r.span(req, 0, "store", "Dir.Load", func(int) { _, err = dir.Load() }).Seconds()
	if err != nil {
		return 0, err
	}
	m["core.recover_s"] = r.span(req, 0, "core", "Recover", func(int) { sys, _, err = core.Recover(opts, dir) }).Seconds()
	if err != nil {
		return 0, err
	}

	// Replication: bootstrap a replica directory over package repl's own
	// HTTP handler, then follow the tail upload frame by frame.
	ts := httptest.NewServer(repl.NewServer(dir, sys.SnapshotSeq))
	defer ts.Close()
	client, err := repl.NewClient(ts.URL, nil)
	if err != nil {
		return 0, err
	}
	replicaDir := filepath.Join(r.work, "replica")
	req = r.request()
	r.span(req, 0, "repl", "Client.Bootstrap", func(int) { _, err = client.Bootstrap(r.ctx, replicaDir) })
	if err != nil {
		return 0, err
	}
	boot, err := server.DirBytes(replicaDir)
	if err != nil {
		return 0, err
	}
	m["repl.bootstrap_bytes"] = float64(boot)
	rdir, err := store.OpenDir(replicaDir)
	if err != nil {
		return 0, err
	}
	defer rdir.Close()
	replica, _, err := core.Recover(opts, rdir)
	if err != nil {
		return 0, err
	}
	replica.DisableJournal()
	var fetchMS, applyMS []float64
	follow := func() error {
		var batch *repl.WALBatch
		var err error
		fetchMS = append(fetchMS, float64(r.span(req, 0, "repl", "Client.WAL", func(int) {
			batch, err = client.WAL(r.ctx, replica.SnapshotSeq(), 0)
		}))/1e6)
		if err != nil {
			return err
		}
		for _, fr := range batch.Frames {
			applyMS = append(applyMS, float64(r.span(req, 0, "core", "ApplyReplicated", func(int) {
				err = replica.ApplyReplicated(fr.Raw, fr.Rec)
			}))/1e6)
			if err != nil {
				return err
			}
		}
		return nil
	}
	tailBatch := r.o.tail.Records() / r.sp.tailBatches
	if err := r.ingestInto(sys, r.o.tail, tailBatch, false, follow); err != nil {
		return 0, fmt.Errorf("tail: %w", err)
	}
	if replica.SnapshotSeq() != sys.SnapshotSeq() {
		return 0, fmt.Errorf("in-process replica at mutation %d, primary at %d", replica.SnapshotSeq(), sys.SnapshotSeq())
	}
	m["repl.wal_fetch_ms"] = stats.Median(fetchMS)
	m["repl.apply_ms"] = stats.Median(applyMS)

	var prepare, commit time.Duration
	var holds []float64
	for _, s := range r.rec.Spans() {
		if s.Layer != "core" {
			continue
		}
		d := time.Duration(s.End - s.Start)
		switch s.Op {
		case "PrepareAdd", "PrepareAppend":
			prepare += d
		case "CommitAdd", "CommitAppend":
			commit += d
			holds = append(holds, float64(d)/1e6)
		}
	}
	m["core.prepare_s"] = prepare.Seconds()
	m["core.commit_s"] = commit.Seconds()
	// Callers hold the facade's write lock for exactly the commit call.
	m["core.commit_lock_hold_ms"] = stats.Median(holds)
	m["store.checkpoint_s"] = spanTime(r.rec.Spans(), "store", "Checkpoint").Seconds()

	if err := r.reads(sys); err != nil {
		return 0, fmt.Errorf("reads: %w", err)
	}
	return load, nil
}

// reads replays a sample of the workload's read mix at three depths: the
// aladin facade (what an embedding program calls), core's access modes
// (objectweb, search) and sqlx on a warehouse snapshot.
func (r *replayer) reads(sys *core.System) error {
	m := r.o.metrics
	db, err := aladin.Open(aladin.WithSnapshot(sys.Snapshot()), aladin.WithPlanCache(planCacheSize),
		aladin.WithOntologySources("go"), aladin.WithWorkers(0))
	if err != nil {
		return err
	}
	defer db.Close()
	wh := sys.WarehouseSnapshot()
	primaryOf := map[string]string{}
	for _, f := range r.o.files {
		primaryOf[f.Source] = f.Primary
	}

	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	facade := map[string][]float64{} // per class: aladin call, us
	var cold, warm, facadeSelf []float64
	type sqlTimes struct {
		prepare, open, exec []float64
		scanned, rows       int64
	}
	perSQL := map[string]*sqlTimes{}
	var objectUS, relatedUS, searchUS []float64
	plans := newPlanLRU()

	next := r.o.mix.stream(rand.New(rand.NewSource(42)))
	for draws := 0; draws < 40*readsPerClass; draws++ {
		q := next()
		if len(facade[q.class]) >= readsPerClass {
			continue
		}
		req := r.request()
		c := q.call
		ref := aladin.ObjectRef{Source: c.ref.Source, Relation: primaryOf[c.ref.Source], Accession: c.ref.Accession}
		var top, below time.Duration
		var err error
		switch q.class {
		case "object":
			top = r.span(req, 0, "aladin", "DB.Browse", func(int) { _, err = db.Browse(r.ctx, ref) })
			below = r.span(req, 0, "objectweb", "Web.Object", func(int) { _, _ = sys.Browse(ref) })
			objectUS = append(objectUS, us(below))
		case "related":
			top = r.span(req, 0, "aladin", "DB.Related", func(int) { _, err = db.Related(r.ctx, ref, 2, 5) })
			below = r.span(req, 0, "objectweb", "Web.RankRelated", func(int) { sys.Related(ref, 2, 5) })
			relatedUS = append(relatedUS, us(below))
		case "search":
			filter := aladin.SearchFilter{Sources: []string{c.ref.Source}}
			top = r.span(req, 0, "aladin", "DB.Search", func(int) { _, err = db.Search(r.ctx, c.search, filter, 3) })
			below = r.span(req, 0, "search", "Index.Search", func(int) { sys.Search(c.search, filter, 3) })
			searchUS = append(searchUS, us(below))
		default:
			st := perSQL[q.class]
			if st == nil {
				st = &sqlTimes{}
				perSQL[q.class] = st
			}
			top = r.span(req, 0, "aladin", "DB.QueryRows", func(int) { err = drainRows(r.ctx, db, c.sql, c.limit) })
			if err != nil {
				return fmt.Errorf("%s: %w", c.sql, err)
			}
			var plan *sqlx.Plan
			var cur *sqlx.Cursor
			prep := r.span(req, 0, "sqlx", "Prepare", func(int) { plan, err = sqlx.Prepare(wh, c.sql) })
			if err != nil {
				return fmt.Errorf("%s: %w", c.sql, err)
			}
			open := r.span(req, 0, "sqlx", "Plan.OpenParallel", func(int) { cur, err = plan.OpenParallel(r.ctx, wh, r.workers) })
			if err != nil {
				return fmt.Errorf("%s: %w", c.sql, err)
			}
			rows := int64(0)
			exec := r.span(req, 0, "sqlx", "Cursor.Next", func(int) {
				for rows <= int64(c.limit) {
					if _, err = cur.Next(r.ctx); err != nil {
						break
					}
					rows++
				}
			})
			if err != nil && !errors.Is(err, io.EOF) {
				return fmt.Errorf("%s: %w", c.sql, err)
			}
			err = nil
			st.scanned += cur.Scanned()
			st.rows += max(1, rows)
			cur.Close()
			st.prepare, st.open, st.exec = append(st.prepare, us(prep)), append(st.open, us(open)), append(st.exec, us(exec))
			below = open + exec
			if plans.touch(c.sql) {
				warm = append(warm, us(top))
			} else {
				// A text the plan cache does not hold is also prepared.
				// Asked again at once it is held: where nearly every text
				// is new, that is the only way to a warm sample of size.
				cold = append(cold, us(top))
				below += prep
				again := r.span(req, 0, "aladin", "DB.QueryRows", func(int) { err = drainRows(r.ctx, db, c.sql, c.limit) })
				if err != nil {
					return fmt.Errorf("%s: %w", c.sql, err)
				}
				plans.touch(c.sql)
				warm = append(warm, us(again))
			}
		}
		if err != nil {
			return fmt.Errorf("%s %+v: %w", q.class, c, err)
		}
		facade[q.class] = append(facade[q.class], us(top))
		facadeSelf = append(facadeSelf, max(0, us(top-below)))
	}

	m["aladin.query_cold_us"] = stats.Median(cold)
	m["aladin.query_warm_us"] = stats.Median(warm)
	m["aladin.self_us"] = stats.Median(facadeSelf)
	m["objectweb.object_us"] = stats.Median(objectUS)
	m["objectweb.related_us"] = stats.Median(relatedUS)
	m["search.query_us"] = stats.Median(searchUS)
	for class, st := range perSQL {
		m["sqlx.prepare_us."+class] = stats.Median(st.prepare)
		m["sqlx.open_us."+class] = stats.Median(st.open)
		m["sqlx.exec_us."+class] = stats.Median(st.exec)
		m["sqlx.scanned_per_row."+class] = float64(st.scanned) / float64(st.rows)
	}

	// aladind's own share: what the untraced HTTP run measured for a class
	// minus what the same reads cost through the facade in this process.
	httpUS := map[string][]float64{}
	for _, s := range r.o.reads {
		if s.Err == nil {
			httpUS[s.Class] = append(httpUS[s.Class], us(s.Latency))
		}
	}
	for class, inproc := range facade {
		if len(httpUS[class]) > 0 {
			m["aladind.self_us."+class] = stats.Median(httpUS[class]) - stats.Median(inproc)
		}
	}
	if len(facade["order"]) > 0 {
		m["aladind.encode_us_per_row"] = m["aladind.self_us.order"] / maxPage
	}

	// rel: hash-index probes and tuple hashing on the main primary
	// relation, the two primitives joins, GROUP BY and DISTINCT lean on.
	f := r.o.files[0]
	table := wh.Relation(f.Source + "_" + f.Primary)
	if table == nil {
		return fmt.Errorf("warehouse has no relation %s_%s", f.Source, f.Primary)
	}
	if ix := table.HashIndex(f.AccessionColumn); ix != nil {
		hits := 0
		d := r.span(r.request(), 0, "rel", "Index.Lookup", func(int) {
			for i := 0; i < relProbes; i++ {
				hits += len(ix.Lookup(rel.Str(f.Acc[i%len(f.Acc)])))
			}
		})
		if hits != relProbes {
			return fmt.Errorf("rel: %d index probes found %d rows", relProbes, hits)
		}
		m["rel.index_lookup_ns"] = float64(d) / relProbes
	}
	var sink uint64
	d := r.span(r.request(), 0, "rel", "TupleHash64", func(int) {
		for _, t := range table.Tuples {
			sink ^= rel.TupleHash64(t)
		}
	})
	if sink == 0 && len(table.Tuples) > 1 {
		return errors.New("rel: tuple hashes cancel out")
	}
	m["rel.hash_ns_per_tuple"] = float64(d) / float64(len(table.Tuples))
	return nil
}

// drainRows runs sql through the facade the way aladind's query handler
// does: render at most limit rows, then pull once more to learn whether a
// next page exists.
func drainRows(ctx context.Context, db *aladin.DB, sql string, limit int) error {
	rows, err := db.QueryRows(ctx, sql)
	if err != nil {
		return err
	}
	defer rows.Close()
	n := 0
	for n < limit && rows.Next() {
		rows.RowStrings()
		n++
	}
	if n == limit {
		rows.Next()
	}
	return rows.Err()
}
