// Package core assembles the ALADIN system (§3): a warehouse of
// relational sources plus the five-step almost-automatic integration
// pipeline and the three access modes.
//
// Adding a source runs, in order (Figure 2):
//
//  1. Data import         — done by the caller (package flatfile or any
//     *rel.Database); "the one point where ALADIN
//     does require human work".
//  2. Primary discovery   — profiling + accession heuristics + FK
//     guessing + in-degree selection (§4.2).
//  3. Secondary discovery — join paths from the primary relation (§4.3).
//  4. Link discovery      — explicit xrefs and implicit sequence/text/
//     entity/ontology links vs. all earlier
//     sources (§4.4).
//  5. Duplicate detection — flag-never-merge duplicate links (§4.5).
//
// All discovered artifacts land in the metadata repository; browsing,
// searching and SQL querying run over the result (§4.6).
//
// Source data enters a System one way, whether it is a whole new source,
// one streamed batch of an existing one, a WAL record being recovered or
// a frame relayed from a replication primary:
//
//	front door → Pending → Commit (journal) → publish
//
// A front door does what only it can: PrepareAdd profiles the source and
// discovers its structure (steps 2–3), PrepareAppend (append.go)
// validates a batch against the registered structure, restore
// (persist.go) takes structure and links from the persisted record. The
// two live front doors then share one prepare body — steps 4 and 5,
// indexes, browse order, search postings, WAL frame — which runs against
// a snapshot of the system without touching reader-visible state. Commit
// journals the frame and calls publish, the one function that installs
// source data into the access modes; replay calls publish directly.
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/discovery"
	"repro/internal/dup"
	"repro/internal/linkdisc"
	"repro/internal/metadata"
	"repro/internal/objectweb"
	"repro/internal/parallel"
	"repro/internal/profile"
	"repro/internal/rel"
	"repro/internal/search"
	"repro/internal/sqlx"
	"repro/internal/store"
)

// Options configures a System.
type Options struct {
	Profile    profile.Options
	Discovery  discovery.Options
	Links      linkdisc.Options
	Duplicates dup.Options
	// OntologySources names sources whose shared terms should yield
	// derived ontology links (§4.4), e.g. "go".
	OntologySources []string
	// DisableSearchIndex skips search indexing (for benchmarks isolating
	// pipeline cost).
	DisableSearchIndex bool
	// Workers bounds the worker pool parallelizing the pipeline's inner
	// loops (profiling, IND checks, link discovery, duplicate scoring).
	// 0 defaults to runtime.GOMAXPROCS(0); 1 forces the serial pipeline.
	// Results are identical for any worker count.
	Workers int
}

// changeThreshold is the §6.2 re-analysis threshold: a source is due for
// re-analysis once this fraction of its tuples has changed.
const changeThreshold = 0.1

func (o *Options) fill() {
	o.Workers = parallel.Workers(o.Workers)
	if o.Profile.Workers == 0 {
		o.Profile.Workers = o.Workers
	}
	if o.Discovery.IND.Workers == 0 {
		o.Discovery.IND.Workers = o.Workers
	}
	if o.Links.Workers == 0 {
		o.Links.Workers = o.Workers
	}
	if o.Duplicates.Workers == 0 {
		o.Duplicates.Workers = o.Workers
	}
}

// Typed pipeline errors, for callers that must distinguish failure
// classes without parsing messages (test with errors.Is).
var (
	// ErrSourceExists rejects integrating a source name twice.
	ErrSourceExists = errors.New("core: source already integrated")
	// ErrNoPrimary means discovery found no primary relation (§4.2).
	ErrNoPrimary = errors.New("core: no primary relation found")
)

// StepTiming records the duration of one pipeline step.
type StepTiming struct {
	Step     string
	Duration time.Duration
}

// AddReport summarizes one committed integration — a new source, or one
// batch appended to a source that exists — with the artifact counts and
// per-step timings of Figure 2.
type AddReport struct {
	Source    string
	Structure *discovery.Structure
	// Tuples is the number of tuples integrated across relations; Records
	// is the number of primary objects among them.
	Tuples  int
	Records int
	// Seq is the global mutation sequence the integration committed at.
	Seq     uint64
	Timings []StepTiming
	// LinksAdded counts new links stored in the repository, by type name.
	LinksAdded map[string]int
	// XRefAttributes are the discovered cross-reference attribute pairs.
	XRefAttributes []linkdisc.XRefAttribute
	LinkStats      linkdisc.Stats
	DupStats       dup.Stats
}

// Duration returns the total pipeline time.
func (r *AddReport) Duration() time.Duration {
	var d time.Duration
	for _, t := range r.Timings {
		d += t.Duration
	}
	return d
}

// System is one ALADIN instance.
type System struct {
	opts Options

	// Repo is the metadata repository (§3); exported for inspection.
	Repo   *metadata.Repo
	engine *linkdisc.Engine
	web    *objectweb.Web
	index  *search.Index

	// warehouse holds every source's relations under
	// "<source>_<relation>" names for cross-source SQL.
	warehouse *rel.Database
	sources   map[string]*rel.Database
	// records caches duplicate-detection records per source.
	records map[string][]dup.Record
	// dupIndex is the persistent blocking index: every record is bucketed
	// once, and each new batch is compared only against the blocking
	// windows instead of re-running detection over the whole union.
	dupIndex *dup.Index

	// durable, when non-nil, journals every acknowledged mutation to a
	// data directory's WAL and tracks the dirty set for incremental
	// checkpoints (durable.go).
	durable *durable

	// seq counts mutations: every committed integration, DML statement,
	// re-analysis and link-feedback removal increments it by exactly one,
	// durable or not. On durable systems it is the global WAL record
	// sequence (stamped into each frame header); everywhere it is the
	// "version" half of the snapshot ID that pins cursors and measures
	// replication lag. Writes are serialized by the caller's mutation
	// lock; reads are atomic so stats and snapshot-ID capture need no lock.
	seq atomic.Uint64

	// failpoint, when non-nil, is invoked at named pipeline stages and
	// aborts the integration in flight on error — a test hook exercising
	// the partial-state unwind.
	failpoint func(stage string) error
}

// New creates an empty system.
func New(opts Options) *System {
	opts.fill()
	repo := metadata.NewRepo()
	return &System{
		opts:      opts,
		Repo:      repo,
		engine:    linkdisc.New(opts.Links),
		web:       objectweb.New(repo),
		index:     search.NewIndex(),
		warehouse: rel.NewDatabase("warehouse"),
		sources:   make(map[string]*rel.Database),
		records:   make(map[string][]dup.Record),
		dupIndex:  dup.NewIndex(),
	}
}

// AddSource runs the five-step pipeline for one imported source.
func (s *System) AddSource(db *rel.Database) (*AddReport, error) {
	return s.AddSourceContext(context.Background(), db)
}

// AddSourceContext is AddSource with cancellation: a canceled ctx aborts
// the pipeline promptly, unwinds any partial state, and returns ctx's
// error — the system is left exactly as it was before the call.
func (s *System) AddSourceContext(ctx context.Context, db *rel.Database) (*AddReport, error) {
	p, err := s.PrepareAdd(ctx, db)
	if err != nil {
		return nil, err
	}
	return s.Commit(p)
}

// Pending is a fully computed but uncommitted integration: the links,
// duplicate records, indexes, browse order, search postings and WAL
// frame of one batch of source data, not yet visible to any access mode.
// Either Commit or Abort must be called exactly once.
type Pending struct {
	// batch holds the tuples being integrated: the whole database of a
	// source the system does not hold yet, or one batch of records for a
	// source it does.
	batch *rel.Database
	key   string // lower-cased source name
	name  string // display name the source is (or will be) registered under
	// fresh marks a source the system does not hold yet: publish installs
	// the batch as the source instead of growing the installed relations.
	fresh     bool
	structure *discovery.Structure
	profs     map[string]*profile.ColumnProfile
	// src is the batch as link discovery sees it; publish registers it
	// with the engine when the source is fresh.
	src *linkdisc.Source
	// links are the candidate links in commit order: discovered, derived
	// ontology, duplicate. The repository's dedup and feedback filters
	// decide which of them are stored.
	links   []metadata.Link
	xattrs  []linkdisc.XRefAttribute
	lstats  linkdisc.Stats
	dstats  dup.Stats
	records []dup.Record
	// qualified are the warehouse clones of a fresh source's relations.
	qualified []*rel.Relation
	web       *objectweb.Prepared
	searchIdx *search.Index
	// registeredTuples, when non-zero, is the tuple count a checkpoint
	// segment recorded at analysis time; publish registers it instead of
	// counting (DML since then may have changed the cardinality).
	registeredTuples int
	timings          []StepTiming
	// walFrame is the pre-encoded WAL record (durable systems only):
	// encoding runs off-lock, so the write-locked commit pays one
	// write+fsync.
	walFrame []byte
	done     bool
}

// PendingAdd and PendingAppend are the names bench/replay.go compiles
// against; bench/ is frozen, so they stay until a benchmark PR re-points
// it at Pending. Nothing else may use them.
type (
	PendingAdd    = Pending
	PendingAppend = Pending
)

// Source returns the name of the source being integrated.
func (p *Pending) Source() string { return p.name }

// PrepareAdd is the front door for a source the system does not hold
// yet. It runs pipeline steps 2–3 — profiling and discovery of the
// primary relation and its join paths — and hands the result to the
// shared prepare body. Nothing visible to the access modes is touched:
// readers may run concurrently, and Commit publishes the result in one
// short step under the caller's write lock. Concurrent prepares are NOT
// safe; integrations are serialized by the caller (package aladin does).
func (s *System) PrepareAdd(ctx context.Context, db *rel.Database) (*Pending, error) {
	p := &Pending{batch: db, key: strings.ToLower(db.Name), name: db.Name, fresh: true}
	if _, exists := s.sources[p.key]; exists {
		return nil, fmt.Errorf("%w: %q", ErrSourceExists, db.Name)
	}
	t0 := time.Now()
	profs, err := profile.ProfileDatabaseContext(ctx, db, s.opts.Profile)
	if err != nil {
		return nil, err
	}
	p.profs = profs
	for _, r := range db.Relations() {
		// The planner's statistics block comes out of the same profiles,
		// without a second scan; the warehouse clones inherit it.
		r.Stats = profile.RelationStats(r, profs)
	}
	p.timings = append(p.timings, StepTiming{"profile", time.Since(t0)})

	// Steps 2+3 run in one Analyze call ("there is high potential for
	// parallelization and combination of these steps", §3).
	t0 = time.Now()
	if p.structure, err = discovery.AnalyzeContext(ctx, db, profs, s.opts.Discovery); err != nil {
		return nil, err
	}
	p.timings = append(p.timings, StepTiming{"discover-structure", time.Since(t0)})
	if p.structure.Primary == "" {
		return nil, fmt.Errorf("%w for source %q", ErrNoPrimary, db.Name)
	}
	// DiscoverAgainst computes both directions without registering the
	// source in the engine, so nothing needs unwinding if it fails.
	return s.prepare(ctx, p, s.engine.DiscoverAgainst)
}

// discoverFunc is the engine entry point a front door selects:
// DiscoverAgainst for a fresh source, DiscoverAppended for a batch.
type discoverFunc func(context.Context, *linkdisc.Source) ([]metadata.Link, []linkdisc.XRefAttribute, linkdisc.Stats, error)

// prepare is the body both front doors share: pipeline steps 4 and 5
// for the batch, then everything publish installs, then the WAL frame.
// Only the duplicate blocking index — internal to the pipeline, never
// read by queries — is updated eagerly; any exit but success (an error,
// a canceled ctx, a panic re-raised from a worker pool) unwinds it.
func (s *System) prepare(ctx context.Context, p *Pending, discover discoverFunc) (*Pending, error) {
	ok := false
	defer func() {
		if !ok {
			s.unwind(p)
		}
	}()

	// Step 4: link discovery, both directions, against every other
	// integrated source (§4.4). The batch's forms are built once, here:
	// link discovery and search indexing read them, and publish grows the
	// source's by them.
	t0 := time.Now()
	var err error
	if p.src, err = linkdisc.NewSource(p.batch, p.structure, p.profs, nil); err != nil {
		return nil, err
	}
	links, xattrs, lstats, err := discover(ctx, p.src)
	if err != nil {
		return nil, err
	}
	p.xattrs, p.lstats = xattrs, lstats
	p.links = append(links, s.deriveOntologyLinks(links)...)
	p.timings = append(p.timings, StepTiming{"link-discovery", time.Since(t0)})
	if err := s.failAt("link-discovery"); err != nil {
		return nil, err
	}

	// Step 5: duplicate detection, incrementally: the batch's records are
	// bucketed into the persistent blocking index and compared only
	// new×existing + new×new within the blocking windows (§4.5) —
	// including against the same source's earlier batches. From here on
	// the index holds these records.
	t0 = time.Now()
	p.records = dup.RecordsFromSource(p.batch, p.structure)
	matches, dstats, err := s.dupIndex.FindNewContext(ctx, p.records, s.opts.Duplicates)
	if err != nil {
		return nil, err
	}
	p.dstats = dstats
	p.links = append(p.links, dup.Links(matches)...)
	p.timings = append(p.timings, StepTiming{"duplicate-detection", time.Since(t0)})
	if err := s.failAt("duplicate-detection"); err != nil {
		return nil, err
	}

	t0 = time.Now()
	if err := s.stage(p); err != nil {
		return nil, err
	}
	if s.durable != nil {
		if p.walFrame, err = store.EncodeRecord(walRecord(p)); err != nil {
			return nil, err
		}
	}
	p.timings = append(p.timings, StepTiming{"prepare-publish", time.Since(t0)})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ok = true
	return p, nil
}

// stage builds what publish installs besides links, on data no reader
// can see yet: hash indexes and qualified warehouse clones for a fresh
// source's relations, the browse order, and the search postings
// (tokenization is the expensive part; the commit-time merge is a cheap
// splice). Replay stages restored batches through here as well.
func (s *System) stage(p *Pending) (err error) {
	if p.fresh {
		idxCols := indexColumns(p.structure)
		for _, r := range p.batch.Relations() {
			cols := idxCols[strings.ToLower(r.Name)]
			buildRelationIndexes(r, cols)
			p.qualified = append(p.qualified, qualifiedClone(r, p.key, cols))
		}
		p.web, err = s.web.Prepare(p.batch, p.structure)
	} else {
		// Only integrations mutate the browse web (serialized by the
		// caller), so merging the installed accession order off-lock is
		// safe.
		p.web, err = s.web.PrepareAppend(p.name, objectweb.Accessions(p.batch, p.structure))
	}
	if err != nil {
		return err
	}
	if !s.opts.DisableSearchIndex {
		p.searchIdx = buildSearchIndex(p.src)
	}
	return nil
}

// deriveOntologyLinks computes the §4.4 shared-term links that
// committing newLinks would let the engine derive, against a snapshot of
// the current repository — so the derivation's O(links) scan runs in the
// prepare phase, outside any reader-blocking lock. The input mirrors
// what the repository would hold after publish stored newLinks: stored
// links, plus the new links deduplicated by (type, endpoints) with
// feedback-removed pairs excluded. The derivation reaches every
// shared-term link anew, but only those publish would store or upgrade
// are returned (Repo.NewOrBetter), so a batch journals and adds the
// links it brings, not every one the repository holds already.
func (s *System) deriveOntologyLinks(newLinks []metadata.Link) []metadata.Link {
	if len(s.opts.OntologySources) == 0 {
		return nil
	}
	combined := s.Repo.AllLinks()
	seen := make(map[string]bool, len(newLinks))
	for _, l := range newLinks {
		a, b := l.From.Key(), l.To.Key()
		if b < a {
			a, b = b, a
		}
		k := fmt.Sprintf("%d\x00%s\x00%s", l.Type, a, b)
		if seen[k] || s.Repo.Removed(l) {
			continue
		}
		seen[k] = true
		combined = append(combined, l)
	}
	var out []metadata.Link
	for _, ont := range s.opts.OntologySources {
		out = append(out, s.engine.DeriveOntologyLinks(combined, ont)...)
	}
	return s.Repo.NewOrBetter(out)
}

// unwind reverts the only state a prepare touches outside its Pending:
// the batch's records in the duplicate index.
func (s *System) unwind(p *Pending) {
	p.done = true
	s.dupIndex.Remove(p.records)
}

// Abort discards a prepared integration. Aborting an already committed
// or aborted one is a no-op.
func (s *System) Abort(p *Pending) {
	if p == nil || p.done {
		return
	}
	s.unwind(p)
}

// Commit journals a prepared integration and publishes it to every
// access mode. This is the only part of an integration that mutates
// reader-visible state; callers serving concurrent readers hold their
// write lock exactly for this call. Every fallible step but the journal
// write ran in the prepare phase, and the journal is written first: the
// integration is acknowledged only once it would survive a crash, and
// on failure nothing is visible (recovery lands on a batch boundary).
// Without a data directory journaling only advances the mutation
// sequence.
func (s *System) Commit(p *Pending) (*AddReport, error) {
	if p.done {
		return nil, fmt.Errorf("core: integration of %q already committed or aborted", p.name)
	}
	if _, exists := s.sources[p.key]; exists == p.fresh {
		s.unwind(p)
		if exists {
			return nil, fmt.Errorf("%w: %q", ErrSourceExists, p.name)
		}
		return nil, fmt.Errorf("core: append to unknown source %q", p.name)
	}
	p.done = true
	t0 := time.Now()
	frame := p.walFrame
	if s.durable != nil && frame == nil {
		// Prepared before the directory was attached; encode now.
		var err error
		if frame, err = store.EncodeRecord(walRecord(p)); err != nil {
			s.unwind(p)
			return nil, err
		}
	}
	if err := s.logFrame(frame, p.name); err != nil {
		s.unwind(p)
		return nil, err
	}
	report := &AddReport{
		Source:         p.name,
		Structure:      p.structure,
		Tuples:         p.batch.TotalTuples(),
		Records:        len(p.records),
		Seq:            s.seq.Load(),
		XRefAttributes: p.xattrs,
		LinkStats:      p.lstats,
		DupStats:       p.dstats,
	}
	var err error
	if report.LinksAdded, err = s.publish(p); err != nil {
		return nil, err
	}
	report.Timings = append(p.timings, StepTiming{"register-and-index", time.Since(t0)})
	return report, nil
}

// CommitAdd and CommitAppend forward to Commit for bench/replay.go (see
// PendingAdd); nothing else may call them.
func (s *System) CommitAdd(p *Pending) (*AddReport, error)    { return s.Commit(p) }
func (s *System) CommitAppend(p *Pending) (*AddReport, error) { return s.Commit(p) }

// publish installs one batch of source data into every access mode: the
// engine's source set, the source and warehouse relations, the duplicate
// records, the browse web, the search index, the link repository and the
// source's registered metadata. It is the only function that does —
// live commits, WAL replay, replication and checkpoint load all end
// here. A fresh source's relations are installed as prepared; an
// existing source's relations grow by append branches, taken HERE and
// not at prepare time: DML replaces relations copy-on-write under the
// same write lock, so a branch taken off-lock could clobber statements
// committed between prepare and commit. Either way the work is O(batch)
// pointer appends and readers holding the previous headers never see
// past their snapshot, so the batch appears atomically. The only error
// is the engine refusing the registration, before anything is installed.
func (s *System) publish(p *Pending) (map[string]int, error) {
	srcDB := s.sources[p.key]
	if p.fresh {
		if err := s.engine.AddSource(p.src); err != nil {
			s.unwind(p)
			return nil, err
		}
		srcDB = p.batch
		s.sources[p.key] = srcDB
		s.records[p.key] = p.records
		for _, q := range p.qualified {
			s.warehouse.Put(q)
		}
	} else {
		s.records[p.key] = append(s.records[p.key], p.records...)
		for _, br := range p.batch.Relations() {
			if len(br.Tuples) == 0 {
				continue
			}
			srcDB.Put(grown(srcDB.Relation(br.Name), br.Tuples))
			s.warehouse.Put(grown(s.warehouse.Relation(p.key+"_"+br.Name), br.Tuples))
		}
		// The source's forms grow by the batch's, at the positions the
		// append branches gave the batch's tuples.
		s.engine.Source(p.name).Grow(p.src)
	}
	added := make(map[string]int)
	for _, l := range p.links {
		if s.Repo.AddLink(l) {
			added[l.Type.String()]++
		}
	}
	s.web.Install(p.web)
	if p.searchIdx != nil {
		s.index.Merge(p.searchIdx)
	}
	tuples := p.registeredTuples
	if tuples == 0 {
		tuples = srcDB.TotalTuples()
	}
	s.Repo.RegisterSource(&metadata.SourceMeta{
		Name:       p.name,
		Structure:  p.structure,
		Profiles:   p.profs,
		TupleCount: tuples,
	})
	return added, nil
}

// grown returns r extended by tuples through an append branch. The
// tuple pointers are shared between the batch, the source relation and
// its warehouse twin — published tuples are never mutated in place (DML
// is copy-on-write), so sharing is safe and skips a deep clone.
func grown(r *rel.Relation, tuples []rel.Tuple) *rel.Relation {
	b := r.AppendBranch()
	for _, t := range tuples {
		b.Append(t)
	}
	return b
}

// indexColumns maps each relation name (lower-cased) to the discovered
// columns worth indexing: the primary relation's accession attribute and
// both endpoints of every guessed foreign key (§4.2/§4.3) — the columns
// the SQL optimizer probes.
func indexColumns(st *discovery.Structure) map[string][]string {
	out := make(map[string][]string)
	add := func(relName, col string) {
		if relName == "" || col == "" {
			return
		}
		out[strings.ToLower(relName)] = append(out[strings.ToLower(relName)], col)
	}
	if st != nil {
		add(st.Primary, st.PrimaryAccession)
		for _, fk := range st.ForeignKeys {
			add(fk.From.FromRelation, fk.From.FromColumn)
			add(fk.From.ToRelation, fk.From.ToColumn)
		}
	}
	return out
}

// buildRelationIndexes builds the declared-constraint indexes plus the
// given discovered columns; unknown columns are skipped.
func buildRelationIndexes(r *rel.Relation, discovered []string) {
	r.EnsureIndexes()
	for _, c := range discovered {
		_, _ = r.EnsureIndex(c)
	}
}

// qualifiedClone copies a source relation for the warehouse under its
// "<source>_<relation>" name. The source's freshly built indexes are
// copied (positions are identical on a clone) rather than rebuilt, and
// any gap is filled before the rename: EnsureIndexes matches declared
// FK endpoints by relation name, which the qualified name would no
// longer satisfy.
func qualifiedClone(r *rel.Relation, source string, discovered []string) *rel.Relation {
	q := r.Clone()
	q.CopyIndexesFrom(r)
	buildRelationIndexes(q, discovered)
	q.Name = source + "_" + r.Name
	return q
}

// failAt triggers the test failpoint for one pipeline stage.
func (s *System) failAt(stage string) error {
	if s.failpoint == nil {
		return nil
	}
	return s.failpoint(stage)
}

// SetFailpoint installs a hook invoked at named pipeline stages
// ("link-discovery", "duplicate-detection"); a non-nil return aborts the
// integration in flight and unwinds its partial state. It exists for
// tests exercising the failure and cancellation paths.
func (s *System) SetFailpoint(f func(stage string) error) { s.failpoint = f }

// buildSearchIndex tokenizes a batch's text-bearing values into a fresh
// index, ready to be spliced into the system index with Merge. A value
// is indexed under the first primary object owning its tuple.
func buildSearchIndex(src *linkdisc.Source) *search.Index {
	ix := search.NewIndex()
	st, ownership := src.Structure, src.Owners()
	for _, r := range src.DB.Relations() {
		isPrimary := strings.EqualFold(r.Name, st.Primary)
		for ci, c := range r.Schema.Columns {
			p := src.Profiles[profile.Key(r.Name, c.Name)]
			if p == nil || p.PurelyNumeric || p.IsSequenceField() {
				continue
			}
			for ti, t := range r.Tuples {
				v := t[ci]
				if v.IsNull() {
					continue
				}
				owners := ownership.Of(r.Name, ti)
				if len(owners) == 0 {
					continue
				}
				ix.Add(search.Document{
					Object: metadata.ObjectRef{
						Source: src.DB.Name, Relation: st.Primary, Accession: owners[0],
					},
					Relation: r.Name,
					Column:   c.Name,
					Text:     v.AsString(),
					Primary:  isPrimary,
				})
			}
		}
	}
	return ix
}

// Sources returns the names of integrated sources in order.
func (s *System) Sources() []string {
	var out []string
	for _, m := range s.Repo.Sources() {
		out = append(out, m.Name)
	}
	return out
}

// Query runs SQL over the warehouse. Relations are addressable as
// "<source>_<relation>", e.g. "swissprot_protein".
func (s *System) Query(sql string) (*sqlx.Result, error) {
	return sqlx.Exec(s.warehouse, sql)
}

// WarehouseSnapshot returns a shallow clone of the warehouse: an
// immutable view for streaming readers. Commits only ever put new
// relation values (published ones are never mutated in place), so a
// cursor over the snapshot stays consistent while later integrations
// commit.
func (s *System) WarehouseSnapshot() *rel.Database {
	return s.warehouse.ShallowClone()
}

// Search runs ranked full-text search (§4.6), grouped per object.
func (s *System) Search(query string, f search.Filter, limit int) []search.Result {
	grouped := search.GroupByObject(s.index.Search(query, f, 0))
	if limit > 0 && len(grouped) > limit {
		grouped = grouped[:limit]
	}
	return grouped
}

// Browse returns the object view for one object, read from the
// ownership table the engine holds for its source, which publish, DML
// and Reanalyze keep current under the write lock. A registered source
// always holds one, so reading it builds nothing.
func (s *System) Browse(ref metadata.ObjectRef) (*objectweb.ObjectView, error) {
	var owners *discovery.Owners
	if src := s.engine.Source(ref.Source); src != nil {
		owners = src.Owners()
	}
	return s.web.Object(ref, owners)
}

// Objects lists a source's primary objects.
func (s *System) Objects(source string) []metadata.ObjectRef {
	return s.web.Objects(source)
}

// Related ranks objects connected to ref by the [BLM+04] path criterion.
func (s *System) Related(ref metadata.ObjectRef, maxLen, limit int) []objectweb.ScoredRef {
	return s.web.RankRelated(ref, maxLen, limit)
}

// Crawl walks the object web from ref (the §1 "search engine can crawl
// the links" behaviour).
func (s *System) Crawl(ref metadata.ObjectRef, depth int) []metadata.ObjectRef {
	return s.web.Crawl(ref, depth)
}

// WebStats reports connectivity statistics of the object web.
func (s *System) WebStats() objectweb.WebStats {
	return s.web.Stats()
}

// IndexedDocuments returns the number of values in the search index.
func (s *System) IndexedDocuments() int {
	return s.index.Len()
}

// Conflicts reports field-level disagreements between two objects flagged
// as duplicates — "Conflicts are highlighted, and data lineage is shown"
// (§4.6).
func (s *System) Conflicts(a, b metadata.ObjectRef) ([]dup.Conflict, error) {
	ra, err := s.record(a)
	if err != nil {
		return nil, err
	}
	rb, err := s.record(b)
	if err != nil {
		return nil, err
	}
	return dup.Conflicts(dup.Match{A: ra, B: rb}), nil
}

func (s *System) record(ref metadata.ObjectRef) (dup.Record, error) {
	for _, r := range s.records[strings.ToLower(ref.Source)] {
		if r.Accession == ref.Accession {
			return r, nil
		}
	}
	return dup.Record{}, fmt.Errorf("core: no record for %s", ref)
}

// RemoveLinkFeedback deletes a link the user flagged as wrong (§6.2) and
// prevents rediscovery. The feedback is journaled before it is applied,
// so restored systems keep honoring it; a logging error means the
// feedback was NOT recorded.
func (s *System) RemoveLinkFeedback(l metadata.Link) (bool, error) {
	if err := s.logRecord(&store.WALRecord{Type: store.RecRemoveLink, Link: &l}); err != nil {
		return false, err
	}
	return s.Repo.RemoveLink(l), nil
}

// RecordChanges notes n changed tuples in a source and reports whether
// the §6.2 threshold policy now calls for re-analysis.
func (s *System) RecordChanges(source string, n int) bool {
	s.Repo.RecordChanges(source, n)
	return s.Repo.NeedsReanalysis(source, changeThreshold)
}

// Reanalyze re-runs structural discovery and link discovery for one
// source after data changes, resetting its change counter (§6.2).
func (s *System) Reanalyze(source string) (*AddReport, error) {
	return s.ReanalyzeContext(context.Background(), source)
}

// ReanalyzeContext is Reanalyze with cancellation. Unlike an
// integration, re-analysis rewrites the source's discovered structure in
// place, so callers serving concurrent readers hold their write lock for
// the whole call. Everything fallible runs first; the re-analysis is
// then journaled like DML — one RecReanalyze record naming the source,
// replayed by re-running it, which is deterministic for any worker
// count — and only then published, so a failed or canceled call leaves
// the system as it was.
func (s *System) ReanalyzeContext(ctx context.Context, source string) (*AddReport, error) {
	name := strings.ToLower(source)
	db, ok := s.sources[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown source %q", source)
	}
	report := &AddReport{Source: db.Name, LinksAdded: make(map[string]int)}
	t0 := time.Now()
	profs, err := profile.ProfileDatabaseContext(ctx, db, s.opts.Profile)
	if err != nil {
		return nil, err
	}
	structure, err := discovery.AnalyzeContext(ctx, db, profs, s.opts.Discovery)
	if err != nil {
		return nil, err
	}
	report.Structure = structure
	report.Timings = append(report.Timings, StepTiming{"reanalyze-structure", time.Since(t0)})

	// Link discovery under the new structure, against every other source.
	// The engine's registered copy is left alone until the journal write
	// succeeded; the candidate's forms are built afresh from the whole
	// source, its ownership table as one batch, and replace the registered
	// ones, so the result depends on the data and the other sources' forms
	// alone, and replay — which restores the ownership tables batch by
	// batch — reproduces it.
	t0 = time.Now()
	src, err := linkdisc.NewSource(db, structure, profs, nil)
	if err != nil {
		return nil, err
	}
	links, xattrs, lstats, err := s.engine.DiscoverAppended(ctx, src)
	if err != nil {
		return nil, err
	}
	report.XRefAttributes = xattrs
	report.LinkStats = lstats
	// The browse data follows the new structure; building it can fail, so
	// it is built before the journal write and installed with the rest.
	web, err := s.web.Prepare(db, structure)
	if err != nil {
		return nil, err
	}
	if err := s.logRecord(&store.WALRecord{Type: store.RecReanalyze, SourceName: db.Name}, db.Name); err != nil {
		return nil, err
	}
	report.Seq = s.seq.Load()

	// Refresh hash indexes for any newly discovered key columns. The
	// warehouse side must not be mutated in place — snapshots share its
	// relations lock-free — so fresh indexed clones are published
	// instead; open cursors keep the relations of their snapshot.
	idxCols := indexColumns(structure)
	for _, r := range db.Relations() {
		buildRelationIndexes(r, idxCols[strings.ToLower(r.Name)])
		r.Stats = profile.RelationStats(r, profs)
		s.warehouse.Put(qualifiedClone(r, name, idxCols[strings.ToLower(r.Name)]))
	}
	s.engine.Source(source).Adopt(src)
	s.web.Install(web)
	for _, l := range links {
		if s.Repo.AddLink(l) {
			report.LinksAdded[l.Type.String()]++
		}
	}
	report.Timings = append(report.Timings, StepTiming{"reanalyze-links", time.Since(t0)})
	s.Repo.RegisterSource(&metadata.SourceMeta{
		Name: db.Name, Structure: structure, Profiles: profs,
		TupleCount: db.TotalTuples(),
	})
	s.Repo.ResetChanges(source)
	return report, nil
}
