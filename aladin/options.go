package aladin

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/flatfile"
	"repro/internal/store"
)

// config is the resolved Open configuration.
type config struct {
	core            core.Options
	snapshot        *store.Snapshot
	planCache       int
	dataDir         string
	checkpointEvery int
	replicaOf       string
	live            []liveSpec
	err             error
}

// Option configures Open.
type Option func(*config)

// WithWorkers bounds the worker pool parallelizing the pipeline's inner
// loops (profiling, IND checks, link discovery, duplicate scoring) and
// the morsel-parallel execution of eligible queries (see ExplainAnalyze's
// Gather operator). 0 means all CPUs; 1 forces serial execution. Results
// are identical for any worker count.
func WithWorkers(n int) Option {
	return func(c *config) {
		if n < 0 {
			c.err = fmt.Errorf("aladin: negative worker count %d", n)
			return
		}
		c.core.Workers = n
	}
}

// WithOntologySources names sources whose shared terms yield derived
// ontology links (§4.4), e.g. "go".
func WithOntologySources(names ...string) Option {
	return func(c *config) {
		c.core.OntologySources = append(c.core.OntologySources, names...)
	}
}

// WithChangeThreshold sets the §6.2 re-analysis threshold as a fraction
// of changed tuples (default 0.1).
func WithChangeThreshold(frac float64) Option {
	return func(c *config) {
		if frac <= 0 || frac > 1 {
			c.err = fmt.Errorf("aladin: change threshold %v outside (0, 1]", frac)
			return
		}
		c.core.ChangeThreshold = frac
	}
}

// WithoutSearchIndex skips search indexing; Search returns nothing.
// Useful for pipeline benchmarks and pure-SQL workloads.
func WithoutSearchIndex() Option {
	return func(c *config) { c.core.DisableSearchIndex = true }
}

// WithPlanCache keeps the n most recently used prepared query plans,
// keyed by SQL text, so repeated Query/QueryRows calls skip parsing and
// validation. Plans bind to warehouse data only when opened, so a cached
// plan stays correct across later AddSource commits. n must be positive;
// without this option no plans are cached.
func WithPlanCache(n int) Option {
	return func(c *config) {
		if n < 1 {
			c.err = fmt.Errorf("aladin: plan cache size %d outside [1, ∞)", n)
			return
		}
		c.planCache = n
	}
}

// WithSnapshot restores an in-memory image taken by DB.Snapshot during
// Open; the restored database is in-memory too. It cannot be combined
// with WithDataDir or WithReplicaOf: a warehouse is saved as a data
// directory, and WithDataDir alone reopens one.
func WithSnapshot(snap *Snapshot) Option {
	return func(c *config) { c.snapshot = snap }
}

// WithDataDir makes the database durable: every acknowledged mutation —
// AddSource, Exec, RemoveLinkFeedback — is journaled to a write-ahead
// log under path before it is acknowledged, and checkpoints fold the
// log into per-source segments. Open recovers whatever state the
// directory holds: the last checkpoint plus the journaled tail, exactly
// the acknowledged mutations, even after a crash.
func WithDataDir(path string) Option {
	return func(c *config) {
		if path == "" {
			c.err = fmt.Errorf("aladin: empty data directory path")
			return
		}
		c.dataDir = path
	}
}

// WithCheckpointEvery checkpoints automatically once n mutations have
// accumulated in the write-ahead log (checked after each mutating call).
// Without this option — or without WithDataDir — checkpoints run only
// when Checkpoint is called. n must be positive.
func WithCheckpointEvery(n int) Option {
	return func(c *config) {
		if n < 1 {
			c.err = fmt.Errorf("aladin: checkpoint threshold %d outside [1, ∞)", n)
			return
		}
		c.checkpointEvery = n
	}
}

// WithReplicaOf opens the database as a read-only replica of the
// primary aladind at the given base URL (e.g. "http://10.0.0.1:8317").
// Requires WithDataDir: the replica bootstraps the primary's checkpoint
// segments into the directory (or resumes from its own previous state
// when possible), then streams and applies the primary's write-ahead
// log continuously until Close. All read methods serve normally over
// the replicated warehouse; every mutation returns ErrReadOnlyReplica.
// Replication state — lag, last sync, bootstrap mode — is reported by
// Stats().Replication.
//
// The data directory is owned by this replica relationship: it carries
// a REPLICA marker, and a directory holding data WITHOUT the marker is
// never wiped (Open fails rather than silently converting a primary's
// directory). WithCheckpointEvery applies locally, so a restarted
// replica recovers from its own segments and fetches only the delta.
func WithReplicaOf(primaryURL string) Option {
	return func(c *config) {
		if primaryURL == "" {
			c.err = fmt.Errorf("aladin: empty primary URL")
			return
		}
		c.replicaOf = primaryURL
	}
}

// WithLiveSource tails the flatfile at path into the named source for
// the lifetime of the DB: existing content streams in immediately, and
// records appended to the file afterwards are ingested as they arrive
// (batched per WithBatchRecords default). The tail stops at Close, which
// waits for the final partial batch to commit. The format must be
// streamable (flatfile.Streamable); incompatible with WithReplicaOf.
// Tail state is reported by Stats().Ingest (LiveSources, LastError).
func WithLiveSource(name, format, path string) Option {
	return func(c *config) {
		if name == "" || path == "" {
			c.err = fmt.Errorf("aladin: live source needs a name and a path")
			return
		}
		if !flatfile.Streamable(format) {
			c.err = fmt.Errorf("aladin: live source %q: format %q not streamable", name, format)
			return
		}
		c.live = append(c.live, liveSpec{name: name, format: format, path: path})
	}
}

// WithCoreOptions replaces the full pipeline configuration — the escape
// hatch for tuning thresholds of individual discovery channels. Options
// set by other With* calls before this one are overwritten.
func WithCoreOptions(o core.Options) Option {
	return func(c *config) { c.core = o }
}
