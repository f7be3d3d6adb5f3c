// Package aladin is the public, concurrency-safe entry point to the
// ALADIN system (conf_cidr_LeserN05): a warehouse of life-science data
// sources integrated by the five-step almost-automatic pipeline (§3) and
// served through the three access modes of §4.6 — browsing the object
// web, ranked full-text search, and SQL over the integrated warehouse.
//
// Open a database, integrate imported sources, and query:
//
//	db, err := aladin.Open(aladin.WithOntologySources("go"))
//	if err != nil { ... }
//	report, err := db.AddSource(ctx, source)       // *rel.Database, e.g. from package flatfile
//	rows, err := db.QueryRows(ctx, "SELECT ... FROM swissprot_protein")  // streaming cursor
//	res, err := db.Query(ctx, "SELECT ... FROM swissprot_protein")       // materialized
//	hits, err := db.Search(ctx, "hemoglobin", aladin.SearchFilter{}, 10)
//	view, err := db.Browse(ctx, aladin.ObjectRef{Source: "swissprot", Relation: "protein", Accession: "P10000"})
//
// Every method takes a context. The long-running mutations — AddSource
// and Reanalyze — honor cancellation throughout the pipeline: a
// canceled AddSource aborts promptly and leaves the database exactly as
// it was. Read methods check the context on entry and then run to
// completion (they are index lookups and scans, not multi-second
// pipelines); a caller's deadline bounds when a late result is
// discarded, not the work of a read already in flight. Failures are
// reported through typed sentinel errors (ErrUnknownSource, ErrBadQuery,
// ErrCanceled, ...) that callers test with errors.Is.
//
// # Concurrency
//
// A DB is safe for arbitrary concurrent use. Every method reaches the
// warehouse through one of two doors. The read door checks the context
// (ErrCanceled), takes the read lock, checks the database is open
// (ErrClosed) and runs the read: Query, QueryRows and the other SQL
// calls only to pin a warehouse snapshot, Search, Browse, Objects,
// Related, Crawl, Conflicts, Stats, SnapshotID, Sources and Source for
// their whole run. Reads run concurrently with each other and — by
// design — with the expensive compute of an in-flight AddSource or
// IngestSource batch: the pipeline's steps 2–5 run outside both doors,
// and only the final commit, a cheap splice of precomputed artifacts,
// passes the write door. The write door takes the write lock and checks
// the database is open; every commit, Exec, Reanalyze (for its whole
// run), RemoveLinkFeedback and replicated frame passes it. AddSource,
// IngestSource, Exec and Reanalyze also hold an integration lock, so
// they run one at a time.
//
// A panic behind the write door may leave reader-visible state half
// written with no way to unwind it, so the database fails stop: it is
// marked closed, the call returns ErrInternal, and every later call
// returns ErrClosed instead of serving inconsistent data.
//
// A QueryRows cursor iterates an immutable warehouse snapshot without
// any lock, so even a commit landing mid-iteration never blocks on — or
// is blocked by — an open cursor; the cursor keeps seeing the pre-add
// state.
package aladin

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/dup"
	"repro/internal/metadata"
	"repro/internal/objectweb"
	"repro/internal/parallel"
	"repro/internal/rel"
	"repro/internal/search"
	"repro/internal/sqlx"
	"repro/internal/store"
)

// Re-exported types: the public API speaks these vocabulary types so
// callers never import internal packages directly.
type (
	// ObjectRef identifies one primary object (source, relation, accession).
	ObjectRef = metadata.ObjectRef
	// Link is one discovered connection between objects.
	Link = metadata.Link
	// ObjectView is the browse view of one object.
	ObjectView = objectweb.ObjectView
	// ScoredRef is one ranked related object.
	ScoredRef = objectweb.ScoredRef
	// WebStats reports object-web connectivity.
	WebStats = objectweb.WebStats
	// RepoStats reports link-repository statistics.
	RepoStats = metadata.Stats
	// SearchFilter restricts a search to data partitions (§4.6).
	SearchFilter = search.Filter
	// SearchResult is one ranked search hit.
	SearchResult = search.Result
	// QueryResult is a SQL result set.
	QueryResult = sqlx.Result
	// Conflict is one field-level disagreement between duplicates.
	Conflict = dup.Conflict
	// Report summarizes one AddSource or Reanalyze run, or one batch of an
	// IngestSource run.
	Report = core.AddReport
	// Source is one imported data source (step 1 of the pipeline — "the
	// one point where ALADIN does require human work").
	Source = rel.Database
	// Snapshot is an in-memory image of the integrated warehouse.
	Snapshot = store.Snapshot
)

// SnapshotID names one exact warehouse state: the completed checkpoint
// generation (0 without a data directory) and the global sequence of
// the last applied mutation. Every read observes exactly one snapshot;
// the pair is what pins pagination cursors, tags HTTP responses
// (ETag), and measures replication lag — a replica has converged with
// its primary when their Seq values match.
type SnapshotID struct {
	Gen uint64
	Seq uint64
}

// String renders the ID in its wire form, e.g. "g3-s17".
func (s SnapshotID) String() string { return fmt.Sprintf("g%d-s%d", s.Gen, s.Seq) }

// Stats aggregates the observable state of a DB.
type Stats struct {
	// Repo summarizes the link repository.
	Repo RepoStats
	// Web summarizes object-web connectivity.
	Web WebStats
	// IndexedDocuments is the number of values in the search index.
	IndexedDocuments int
	// Snapshot identifies the warehouse state this Stats observed:
	// checkpoint generation + last-applied mutation sequence.
	Snapshot SnapshotID
	// Durability reports WAL and checkpoint state (Enabled=false without
	// WithDataDir).
	Durability DurabilityStats
	// Replication reports the database's role and, on a replica, its
	// streaming state and lag behind the primary.
	Replication ReplicationStats
	// Ingest aggregates streaming-ingestion activity since Open
	// (IngestSource runs, per-stage wall times).
	Ingest IngestStats
}

// SourceInfo describes one integrated source.
type SourceInfo struct {
	Name string
	// Primary and Accession name the discovered primary relation and its
	// accession attribute (§4.2).
	Primary   string
	Accession string
	// Tuples is the source size at analysis time.
	Tuples int
}

// DB is one open ALADIN database. It wraps the integration pipeline and
// the three access modes behind a reader/writer discipline: any number
// of readers run concurrently, and an in-flight AddSource blocks them
// only during its short commit window.
type DB struct {
	// mu guards the reader-visible state of sys. Only the read door
	// (RLock), the write door (Lock) and Close take it.
	mu sync.RWMutex
	// addMu serializes integrations; the pipeline's compute phase runs
	// under it WITHOUT holding mu, concurrently with readers.
	addMu  sync.Mutex
	sys    *core.System
	closed bool
	// plans caches prepared query plans by SQL text (nil = no cache);
	// it has its own lock and is never touched under mu.
	plans *planCache
	// workers is the query parallelism degree (resolved from WithWorkers;
	// immutable after Open). Eligible scans run as parallel morsels.
	workers int

	// dir is the durable data directory (nil without WithDataDir).
	// chkMu serializes checkpoints, which otherwise run outside mu;
	// chkErrMu guards only lastChkErr so Stats never waits on a
	// checkpoint in flight.
	dir             *store.Dir
	checkpointEvery int
	chkMu           sync.Mutex
	chkErrMu        sync.Mutex
	lastChkErr      error

	// repl is the replica machinery (nil unless opened WithReplicaOf):
	// the streaming client goroutine applying the primary's WAL, plus
	// its observable state (replica.go).
	repl *replicaState

	// ingestMu guards ingestTotals, the lifetime streaming-ingestion
	// counters reported by Stats().Ingest (ingest.go).
	ingestMu     sync.Mutex
	ingestTotals IngestStats
}

// Open creates a database, configured by functional options. With
// WithDataDir the directory's warehouse is recovered, with WithSnapshot
// the image is restored, before Open returns.
func Open(opts ...Option) (*DB, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.err != nil {
		return nil, cfg.err
	}
	var plans *planCache
	if cfg.planCache > 0 {
		plans = newPlanCache(cfg.planCache)
	}
	switch {
	case cfg.replicaOf != "":
		return openReplica(&cfg, plans)
	case cfg.dataDir != "":
		return openDurable(&cfg, plans)
	case cfg.snapshot != nil:
		sys, err := core.Load(cfg.core, cfg.snapshot)
		if err != nil {
			return nil, fmt.Errorf("aladin: restoring snapshot: %w", err)
		}
		return &DB{sys: sys, plans: plans, workers: parallel.Workers(cfg.core.Workers)}, nil
	}
	return &DB{sys: core.New(cfg.core), plans: plans, workers: parallel.Workers(cfg.core.Workers)}, nil
}

// Close marks the database closed and, on a durable database, flushes
// and closes the write-ahead log; subsequent calls return ErrClosed.
// Close never interrupts an in-flight call — it waits for the write lock.
func (d *DB) Close() error {
	// A replica's streaming goroutine applies records under the write
	// lock; stop and drain it before taking that lock ourselves.
	if d.repl != nil {
		d.repl.stop()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	if d.dir != nil {
		return d.dir.Close()
	}
	return nil
}

// read is the door of every read: it checks ctx, then runs fn against
// the system under the read lock unless the database is closed. fn runs
// concurrently with other reads and must not mutate.
func (d *DB) read(ctx context.Context, fn func(*core.System) error) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return ErrClosed
	}
	return fn(d.sys)
}

// write is the door of every change to reader-visible state: fn runs
// under the write lock unless the database is closed. A panic in fn
// would leave that state half written with no way to unwind it, so the
// database fails stop: it is marked closed and the panic surfaces as
// ErrInternal instead of serving inconsistent data.
func (d *DB) write(fn func(*core.System) error) (err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	defer func() {
		if r := recover(); r != nil {
			d.closed = true
			err = fmt.Errorf("%w: write panicked, database closed: %v", ErrInternal, r)
		}
	}()
	return fn(d.sys)
}

// knownSource reports ErrUnknownSource unless sys holds the named source.
func knownSource(sys *core.System, name string) error {
	if sys.Repo.Source(name) == nil {
		return fmt.Errorf("%w: %s", ErrUnknownSource, name)
	}
	return nil
}

// AddSource runs the five-step integration pipeline (§3, Figure 2) for
// one imported source. The expensive steps — profiling, structural
// discovery, link discovery against every integrated source, duplicate
// detection — compute against a snapshot of the current state while
// readers keep running; the result is then committed in one short
// write-locked step. On any failure, cancellation, or panic in the
// pipeline the database is left exactly as it was before the call.
//
// Errors: ErrSourceExists, ErrNoPrimary, ErrCanceled (wrapping the
// context error), ErrClosed.
func (d *DB) AddSource(ctx context.Context, src *Source) (*Report, error) {
	if src == nil {
		return nil, errors.New("aladin: nil source")
	}
	if err := d.replicaGuard(); err != nil {
		return nil, err
	}
	d.addMu.Lock()
	defer d.addMu.Unlock()
	if err := d.read(ctx, func(sys *core.System) error {
		if sys.Repo.Source(src.Name) != nil {
			return fmt.Errorf("%w: %s", ErrSourceExists, src.Name)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return d.integrate(ctx, src)
}

// integrate takes one batch of source data — a whole new source, or the
// next batch of one being streamed in — through prepare, commit and the
// checkpoint trigger. The caller holds addMu, which serializes
// integrations; only the commit passes the write door, so readers keep
// running through the compute phase.
func (d *DB) integrate(ctx context.Context, batch *Source) (*Report, error) {
	p, err := d.prepare(ctx, batch)
	if err != nil {
		return nil, err
	}
	var rep *Report
	if err := d.write(func(sys *core.System) (err error) {
		if rep, err = sys.Commit(p); err != nil {
			return fmt.Errorf("aladin: commit: %w", err)
		}
		return nil
	}); err != nil {
		// A closed database never ran the commit. Abort releases the
		// duplicate-index entries prepare made, which only integrations
		// touch, under addMu; after a commit it is a no-op.
		d.sys.Abort(p)
		return nil, err
	}
	d.maybeCheckpoint()
	return rep, nil
}

// prepare runs the compute phase through the front door that fits the
// batch: a source the database does not hold yet is profiled and its
// structure discovered, a batch of one it holds is checked against that
// structure. addMu guarantees no integration registers the source
// between this check and the commit. Pipeline panics (already re-raised
// on this goroutine by internal/parallel, already unwound by core)
// become errors, so one bad record cannot take down a server.
func (d *DB) prepare(ctx context.Context, batch *Source) (p *core.Pending, err error) {
	defer func() {
		if r := recover(); r != nil {
			p, err = nil, fmt.Errorf("%w: integrating %s: %v", ErrInternal, batch.Name, r)
		}
	}()
	if d.sys.Repo.Source(batch.Name) != nil {
		p, err = d.sys.PrepareAppend(ctx, batch.Name, batch)
	} else {
		p, err = d.sys.PrepareAdd(ctx, batch)
	}
	if err != nil {
		return nil, mapPipelineErr(err)
	}
	return p, nil
}

// Query runs a SQL SELECT over the integrated warehouse and returns the
// fully materialized result — a convenience wrapper collecting QueryRows;
// prefer QueryRows for large or paginated results. Relations are
// addressable as "<source>_<relation>", e.g. "swissprot_protein".
// Errors: ErrBadQuery (wrapping the parse or execution error),
// ErrCanceled, ErrClosed.
func (d *DB) Query(ctx context.Context, sql string) (*QueryResult, error) {
	rows, err := d.QueryRows(ctx, sql)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	res := &QueryResult{Columns: rows.Columns()}
	for rows.Next() {
		res.Rows = append(res.Rows, rows.row.Clone())
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// Search runs ranked full-text search (§4.6), grouped per object. The
// filter restricts to vertical (columns) and horizontal (sources,
// primary-only) partitions; limit <= 0 returns everything.
func (d *DB) Search(ctx context.Context, query string, f SearchFilter, limit int) (hits []SearchResult, err error) {
	err = d.read(ctx, func(sys *core.System) error {
		hits = sys.Search(query, f, limit)
		return nil
	})
	return hits, err
}

// Browse returns the object-web view of one object: its fields,
// dependent annotations, same-relation neighbors, and links (§4.6).
// Errors: ErrUnknownSource, ErrUnknownObject, ErrCanceled, ErrClosed.
func (d *DB) Browse(ctx context.Context, ref ObjectRef) (view *ObjectView, err error) {
	err = d.read(ctx, func(sys *core.System) error {
		if err := knownSource(sys, ref.Source); err != nil {
			return err
		}
		v, err := sys.Browse(ref)
		if err != nil {
			return fmt.Errorf("%w: %w", ErrUnknownObject, err)
		}
		view = v
		return nil
	})
	return view, err
}

// Objects lists a source's primary objects in accession order.
// Errors: ErrUnknownSource, ErrCanceled, ErrClosed.
func (d *DB) Objects(ctx context.Context, source string) (refs []ObjectRef, err error) {
	err = d.read(ctx, func(sys *core.System) error {
		if err := knownSource(sys, source); err != nil {
			return err
		}
		refs = sys.Objects(source)
		return nil
	})
	return refs, err
}

// Related ranks objects connected to ref by the [BLM+04] path criterion,
// exploring paths up to maxLen edges (default 3 when <= 0).
// Errors: ErrUnknownSource, ErrCanceled, ErrClosed.
func (d *DB) Related(ctx context.Context, ref ObjectRef, maxLen, limit int) (ranked []ScoredRef, err error) {
	err = d.read(ctx, func(sys *core.System) error {
		if err := knownSource(sys, ref.Source); err != nil {
			return err
		}
		ranked = sys.Related(ref, maxLen, limit)
		return nil
	})
	return ranked, err
}

// Crawl walks the object web breadth-first from ref up to depth hops —
// the §1 "search engine can crawl the links" behaviour.
// Errors: ErrUnknownSource, ErrCanceled, ErrClosed.
func (d *DB) Crawl(ctx context.Context, ref ObjectRef, depth int) (refs []ObjectRef, err error) {
	err = d.read(ctx, func(sys *core.System) error {
		if err := knownSource(sys, ref.Source); err != nil {
			return err
		}
		refs = sys.Crawl(ref, depth)
		return nil
	})
	return refs, err
}

// Conflicts reports field-level disagreements between two objects
// flagged as duplicates — "Conflicts are highlighted, and data lineage
// is shown" (§4.6). Errors: ErrUnknownObject, ErrCanceled, ErrClosed.
func (d *DB) Conflicts(ctx context.Context, a, b ObjectRef) (cs []Conflict, err error) {
	err = d.read(ctx, func(sys *core.System) error {
		c, err := sys.Conflicts(a, b)
		if err != nil {
			return fmt.Errorf("%w: %w", ErrUnknownObject, err)
		}
		cs = c
		return nil
	})
	return cs, err
}

// Stats reports repository, object-web and search-index statistics.
func (d *DB) Stats(ctx context.Context) (st Stats, err error) {
	err = d.read(ctx, func(sys *core.System) error {
		st = Stats{
			Repo:             sys.Repo.Stats(),
			Web:              sys.WebStats(),
			IndexedDocuments: sys.IndexedDocuments(),
			Snapshot:         snapshotID(sys),
			Durability:       d.durabilityStats(),
			Replication:      d.replicationStats(),
			Ingest:           d.ingestStats(),
		}
		return nil
	})
	return st, err
}

// SnapshotID returns the identifier of the warehouse state a read
// issued right now would observe (see the SnapshotID type).
func (d *DB) SnapshotID(ctx context.Context) (sid SnapshotID, err error) {
	err = d.read(ctx, func(sys *core.System) error {
		sid = snapshotID(sys)
		return nil
	})
	return sid, err
}

// snapshotID reads the system's snapshot ID; callers are behind a door.
func snapshotID(sys *core.System) SnapshotID {
	gen, seq := sys.SnapshotID()
	return SnapshotID{Gen: gen, Seq: seq}
}

// Sources lists the integrated sources in integration order.
func (d *DB) Sources(ctx context.Context) (out []SourceInfo, err error) {
	err = d.read(ctx, func(sys *core.System) error {
		for _, m := range sys.Repo.Sources() {
			out = append(out, sourceInfo(m))
		}
		return nil
	})
	return out, err
}

// Source describes one integrated source.
// Errors: ErrUnknownSource, ErrCanceled, ErrClosed.
func (d *DB) Source(ctx context.Context, name string) (info SourceInfo, err error) {
	err = d.read(ctx, func(sys *core.System) error {
		if err := knownSource(sys, name); err != nil {
			return err
		}
		info = sourceInfo(sys.Repo.Source(name))
		return nil
	})
	return info, err
}

func sourceInfo(m *metadata.SourceMeta) SourceInfo {
	info := SourceInfo{Name: m.Name, Tuples: m.TupleCount}
	if m.Structure != nil {
		info.Primary = m.Structure.Primary
		info.Accession = m.Structure.PrimaryAccession
	}
	return info
}

// Reanalyze re-runs structural and link discovery for one source after
// data changes, resetting its §6.2 change counter. Unlike AddSource,
// re-analysis runs entirely behind the write door (it rewrites the
// source's discovered structure in place), so readers wait for it; it
// is expected to be rare. A panic mid-run would leave the source half
// rewritten, so it closes the database and returns ErrInternal. On a
// durable database the re-analysis is journaled before it is published,
// like DML. Errors: ErrUnknownSource, ErrCanceled, ErrClosed,
// ErrInternal.
func (d *DB) Reanalyze(ctx context.Context, source string) (*Report, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if err := d.replicaGuard(); err != nil {
		return nil, err
	}
	d.addMu.Lock()
	defer d.addMu.Unlock()
	var rep *Report
	if err := d.write(func(sys *core.System) (err error) {
		if err := knownSource(sys, source); err != nil {
			return err
		}
		rep, err = sys.ReanalyzeContext(ctx, source)
		return mapPipelineErr(err)
	}); err != nil {
		return nil, err
	}
	d.maybeCheckpoint()
	return rep, nil
}

// RemoveLinkFeedback deletes a link the user flagged as wrong (§6.2) and
// prevents its rediscovery. It reports whether the link existed. On a
// durable database the feedback is journaled before it is acknowledged;
// an error means it was NOT recorded.
func (d *DB) RemoveLinkFeedback(ctx context.Context, l Link) (bool, error) {
	if err := ctxErr(ctx); err != nil {
		return false, err
	}
	if err := d.replicaGuard(); err != nil {
		return false, err
	}
	var existed bool
	if err := d.write(func(sys *core.System) (err error) {
		existed, err = sys.RemoveLinkFeedback(l)
		return err
	}); err != nil {
		return false, err
	}
	d.maybeCheckpoint()
	return existed, nil
}

// Snippet extracts a short context window around the first query-term
// occurrence in a search result's text, for display in result lists.
// width is the approximate number of characters around the match
// (default 60).
func Snippet(r SearchResult, query string, width int) string {
	return search.Snippet(r, query, width)
}

// mapPipelineErr converts core pipeline errors to the package's typed
// sentinels.
func mapPipelineErr(err error) error {
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	case errors.Is(err, core.ErrNoPrimary):
		return fmt.Errorf("%w: %w", ErrNoPrimary, err)
	case errors.Is(err, core.ErrSourceExists):
		return fmt.Errorf("%w: %w", ErrSourceExists, err)
	default:
		return err
	}
}

// ctxErr reports a typed cancellation error when ctx is already done.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return nil
}
