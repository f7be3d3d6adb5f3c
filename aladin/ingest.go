package aladin

// Streaming ingestion (the public face of internal/ingest): IngestSource
// parses records straight off an io.Reader and integrates them in
// bounded batches, each through the same integrate call AddSource makes.
// A batch for a source the database does not hold yet has its structure
// discovered (so make the batch size large enough to be representative);
// every batch after that reuses the structure. Readers observe only
// batch-boundary snapshots: each batch commits atomically under the
// write lock, and memory stays bounded by the batch size regardless of
// input length. Over a NewTailReader the same machinery follows a file
// that is still being written, committing a partial batch once the input
// has been idle for tailStall.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/flatfile"
	"repro/internal/ingest"
	"repro/internal/rel"
)

// IngestProgress reports the state after one committed batch.
type IngestProgress = ingest.Progress

// IngestSummary aggregates one ingestion run.
type IngestSummary = ingest.Summary

// IngestReport summarizes one IngestSource run.
type IngestReport struct {
	Source string
	IngestSummary
}

// IngestStats aggregates streaming-ingestion activity since Open,
// reported by Stats().Ingest.
type IngestStats struct {
	Runs    int
	Batches int
	Records int
	Tuples  int
	Bytes   int64
	Links   int
	// Per-stage wall time summed across runs: scanner parsing, batch
	// assembly, link discovery, duplicate detection, index/browse/journal
	// preparation, and the write-locked commits.
	Parse  time.Duration
	Batch  time.Duration
	Link   time.Duration
	Dup    time.Duration
	Index  time.Duration
	Commit time.Duration
}

// tailStall is how long IngestSource waits on an idle tail reader before
// committing a partial batch.
const tailStall = 500 * time.Millisecond

// NewTailReader wraps a growing file (or any reader) with tail-follow
// semantics for live ingestion: at end of data it polls until more bytes
// arrive, and reports EOF only once ctx is canceled. poll <= 0 uses the
// default (200ms). Feed it to IngestSource to tail a file that is still
// being written: over a tail reader IngestSource also commits a partial
// batch once no record has arrived for 500ms, so a record becomes
// queryable shortly after it is written. Cancel ctx to end the tail; the
// final partial batch commits before IngestSource returns.
func NewTailReader(ctx context.Context, r io.Reader, poll time.Duration) io.Reader {
	return ingest.NewTailReader(ctx, r, poll)
}

// ErrBadFormat rejects ingestion formats the streaming scanners do not
// support (whole-file formats like OBO and XML go through AddSource).
var ErrBadFormat = errors.New("aladin: format not streamable")

// IngestOption tunes one IngestSource call.
type IngestOption func(*ingestConfig)

type ingestConfig struct {
	batchRecords int
	progress     func(IngestProgress)
}

// WithBatchRecords sets the number of logical records per committed
// batch (default 1000). Larger batches amortize per-batch link/duplicate
// work; smaller batches bound memory and publish sooner.
func WithBatchRecords(n int) IngestOption {
	return func(c *ingestConfig) { c.batchRecords = n }
}

// WithIngestProgress invokes fn after every committed batch — the hook
// behind the HTTP streaming upload's NDJSON progress lines.
func WithIngestProgress(fn func(IngestProgress)) IngestOption {
	return func(c *ingestConfig) { c.progress = fn }
}

// IngestSource streams records of the given format from r into the named
// source, creating it if it does not exist. Every batch is linked and
// checked for duplicates against everything integrated so far, extends
// the indexes, statistics, browse order and search postings
// incrementally, and is journaled as one WAL frame. Concurrent readers
// see each batch atomically at its commit; a failure or cancellation
// leaves every previously committed batch in place (the warehouse is
// always at a batch boundary). The returned report describes the
// committed prefix even on error. When r is a NewTailReader, a partial
// batch also commits once the input has been idle for 500ms.
//
// Errors: ErrBadFormat, ErrNoPrimary (first batch), ErrCanceled,
// ErrReadOnlyReplica, ErrClosed, and parse errors from the scanner.
func (d *DB) IngestSource(ctx context.Context, name, format string, r io.Reader, opts ...IngestOption) (*IngestReport, error) {
	if name == "" {
		return nil, errors.New("aladin: empty source name")
	}
	if err := d.replicaGuard(); err != nil {
		return nil, err
	}
	if !flatfile.Streamable(format) {
		return nil, fmt.Errorf("%w: %q (streamable: %s)", ErrBadFormat, format, strings.Join(flatfile.StreamFormats(), ", "))
	}
	var cfg ingestConfig
	for _, o := range opts {
		o(&cfg)
	}
	cr := &ingest.CountingReader{R: r}
	sc, err := flatfile.NewScanner(format, cr)
	if err != nil {
		return nil, err
	}

	d.addMu.Lock()
	defer d.addMu.Unlock()

	if err := d.read(ctx, func(*core.System) error { return nil }); err != nil {
		return nil, err
	}

	commit := func(ctx context.Context, batch *rel.Database) (ingest.CommitInfo, error) {
		batch.Name = name
		rep, err := d.integrate(ctx, batch)
		if err != nil {
			return ingest.CommitInfo{}, err
		}
		return commitInfo(rep), nil
	}

	runner := &ingest.Runner{Scanner: sc, Commit: commit, Opts: ingest.Options{
		BatchRecords: cfg.batchRecords,
		Progress:     cfg.progress,
		Counter:      cr,
	}}
	if _, ok := r.(*ingest.TailReader); ok {
		runner.Opts.FlushStall = tailStall
	}
	sum, runErr := runner.Run(ctx)
	d.recordIngest(sum)
	rep := &IngestReport{Source: name, IngestSummary: *sum}
	if runErr != nil {
		return rep, mapPipelineErr(runErr)
	}
	return rep, nil
}

// commitInfo folds a batch's report into the runner's per-stage
// buckets: link discovery, duplicate detection, the write-locked commit,
// and under Index everything else a batch prepares off-lock — profiling
// and structure discovery on a source's first batch, then indexes,
// browse order, search postings and the WAL frame.
func commitInfo(rep *Report) ingest.CommitInfo {
	info := ingest.CommitInfo{Seq: rep.Seq}
	for _, t := range rep.Timings {
		switch t.Step {
		case "link-discovery":
			info.Link += t.Duration
		case "duplicate-detection":
			info.Dup += t.Duration
		case "register-and-index":
			info.Commit += t.Duration
		default:
			info.Index += t.Duration
		}
	}
	for _, n := range rep.LinksAdded {
		info.Links += n
	}
	return info
}

// recordIngest folds one run's summary into the DB-lifetime totals.
func (d *DB) recordIngest(sum *ingest.Summary) {
	if sum == nil {
		return
	}
	d.ingestMu.Lock()
	defer d.ingestMu.Unlock()
	d.ingestTotals.Runs++
	d.ingestTotals.Batches += sum.Batches
	d.ingestTotals.Records += sum.Records
	d.ingestTotals.Tuples += sum.Tuples
	d.ingestTotals.Bytes += sum.Bytes
	d.ingestTotals.Links += sum.Links
	d.ingestTotals.Parse += sum.Parse
	d.ingestTotals.Batch += sum.Batch
	d.ingestTotals.Link += sum.Link
	d.ingestTotals.Dup += sum.Dup
	d.ingestTotals.Index += sum.Index
	d.ingestTotals.Commit += sum.Commit
}

// ingestStats snapshots the lifetime totals.
func (d *DB) ingestStats() IngestStats {
	d.ingestMu.Lock()
	defer d.ingestMu.Unlock()
	return d.ingestTotals
}
