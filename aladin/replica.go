package aladin

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/repl"
	"repro/internal/store"
)

// This file is the replica side of replication (see internal/repl for
// the wire protocol). A DB opened WithReplicaOf serves the full read
// API over a warehouse it does not own: it bootstraps the primary's
// checkpoint into its local data directory, recovers from it exactly as
// after a crash, then streams the primary's WAL and applies each frame
// under the write lock — journaling the frame verbatim into its OWN
// WAL first, so a restart recovers locally and resumes streaming at the
// exact sequence it left off. Local checkpoints (WithCheckpointEvery)
// fold the stream into local segments, keeping restarts incremental.

// Replication states reported by ReplicationStats.State.
const (
	// ReplStateBootstrapping: downloading segments / catching up.
	ReplStateBootstrapping = "bootstrapping"
	// ReplStateStreaming: applying the primary's WAL tail continuously.
	ReplStateStreaming = "streaming"
	// ReplStateStale: the primary trimmed records this replica still
	// needs (it fell more than one checkpoint behind, or the primary's
	// directory was replaced). The replica keeps serving its last state;
	// restart it to re-bootstrap. Readiness probes fail in this state.
	ReplStateStale = "stale"
	// ReplStateError: the stream is down (primary unreachable, apply
	// failure); the replica keeps serving and keeps retrying.
	ReplStateError = "error"
)

// ReplicationStats reports a database's replication role and state.
type ReplicationStats struct {
	// Role is "primary" (durable, serves the replication API),
	// "replica", or "standalone" (no data directory).
	Role string
	// The remaining fields are replica-only.
	// Primary is the primary's base URL.
	Primary string
	// State is one of the ReplState constants.
	State string
	// AppliedSeq is the last mutation sequence applied locally;
	// PrimarySeq is the primary's sequence at the last successful poll.
	// Lag is PrimarySeq - AppliedSeq (0 when fully caught up).
	AppliedSeq uint64
	PrimarySeq uint64
	Lag        uint64
	// LastSync is when the last successful WAL poll completed.
	LastSync time.Time
	// LastError is the most recent stream failure ("" while healthy).
	LastError string
	// BootstrapMode is how this process obtained its initial state:
	// "segments" (full download) or "resume" (recovered its own
	// directory and streamed only the delta). BootstrapDuration is how
	// long that took, catch-up included.
	BootstrapMode     string
	BootstrapDuration time.Duration
}

// replicaState is the DB-internal replica machinery.
type replicaState struct {
	primary string
	client  *repl.Client
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	mu           sync.Mutex
	state        string
	primarySeq   uint64
	lastSync     time.Time
	lastErr      error
	bootMode     string
	bootDuration time.Duration
	stopOnce     sync.Once
}

func (rs *replicaState) stop() {
	rs.stopOnce.Do(func() {
		rs.cancel()
		rs.wg.Wait()
	})
}

func (rs *replicaState) observe(primarySeq uint64) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.state = ReplStateStreaming
	rs.lastErr = nil
	if primarySeq > rs.primarySeq {
		rs.primarySeq = primarySeq
	}
	rs.lastSync = time.Now()
}

func (rs *replicaState) fail(state string, err error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.state = state
	rs.lastErr = err
}

// openReplica opens a read-only replica (WithReplicaOf).
func openReplica(cfg *config, plans *planCache) (*DB, error) {
	if cfg.dataDir == "" {
		return nil, errors.New("aladin: WithReplicaOf requires WithDataDir")
	}
	if cfg.snapshot != nil {
		return nil, errors.New("aladin: WithSnapshot cannot be combined with WithReplicaOf")
	}
	client, err := repl.NewClient(cfg.replicaOf, nil)
	if err != nil {
		return nil, err
	}
	loopCtx, cancel := context.WithCancel(context.Background())
	rs := &replicaState{primary: client.Primary, client: client, state: ReplStateBootstrapping, cancel: cancel}

	start := time.Now()
	ctx := context.Background()
	sys, mode, err := openReplicaDir(ctx, cfg, client)
	if err != nil {
		cancel()
		return nil, err
	}
	// The replication client journals the primary's frames verbatim;
	// the mutators applying them must not journal a second copy.
	sys.DisableJournal()

	db := &DB{
		sys: sys, plans: plans, dir: sys.DurableDir(), checkpointEvery: cfg.checkpointEvery,
		workers: parallel.Workers(cfg.core.Workers), repl: rs,
	}

	// Catch up to the primary's sequence as of now before returning, so
	// an opened replica starts at lag ≈ 0; the streaming goroutine then
	// keeps it there.
	m, err := client.Manifest(ctx)
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("aladin: replica catch-up: %w", err)
	}
	for sys.SnapshotSeq() < m.Seq {
		batch, err := client.WAL(ctx, sys.SnapshotSeq(), 0)
		if err != nil {
			db.Close()
			return nil, fmt.Errorf("aladin: replica catch-up: %w", err)
		}
		if err := db.applyBatch(batch); err != nil {
			db.Close()
			return nil, fmt.Errorf("aladin: replica catch-up: %w", err)
		}
		if len(batch.Frames) == 0 {
			break // primary trimmed nothing and has nothing more for us
		}
	}

	rs.mu.Lock()
	rs.state = ReplStateStreaming
	rs.bootMode = mode
	rs.bootDuration = time.Since(start)
	rs.primarySeq = m.Seq
	rs.lastSync = time.Now()
	rs.mu.Unlock()

	rs.wg.Add(1)
	go db.replicaLoop(loopCtx)
	return db, nil
}

// openReplicaDir produces a recovered system for the replica: resuming
// from the local directory when its state is usable, otherwise wiping
// (marker-guarded) and bootstrapping the primary's segments.
func openReplicaDir(ctx context.Context, cfg *config, client *repl.Client) (*core.System, string, error) {
	path := cfg.dataDir
	if hasManifest(path) {
		if _, ok := repl.ReadMarker(path); !ok {
			return nil, "", fmt.Errorf("aladin: %s holds data but no %s marker; refusing to turn a primary's data directory into a replica", path, repl.MarkerName)
		}
		// Try to resume: recover the local state and check the primary
		// can still serve the delta (our seq has not fallen behind the
		// primary's last checkpoint).
		sys, usable := tryRecoverReplica(cfg, path)
		if usable {
			m, err := client.Manifest(ctx)
			if err != nil {
				return nil, "", fmt.Errorf("aladin: reaching primary %s: %w", client.Primary, err)
			}
			if sys.SnapshotSeq() >= m.RecordSeq {
				return sys, "resume", nil
			}
			// Fell behind the primary's checkpoint; the WAL delta is
			// trimmed. Fall through to a fresh bootstrap.
			sys.DurableDir().Close()
		}
		if err := wipeDir(path); err != nil {
			return nil, "", fmt.Errorf("aladin: clearing stale replica directory: %w", err)
		}
	}
	// If the primary checkpoints while segments are downloading, a fetch
	// 404s (the file left the manifest); retry against the new manifest.
	var err error
	for attempt := 0; ; attempt++ {
		if _, err = client.Bootstrap(ctx, path); err == nil {
			break
		}
		if attempt == 2 {
			return nil, "", fmt.Errorf("aladin: bootstrapping from %s: %w", client.Primary, err)
		}
	}
	dir, err := store.OpenDir(path)
	if err != nil {
		return nil, "", fmt.Errorf("aladin: opening bootstrapped directory: %w", err)
	}
	sys, _, err := core.Recover(cfg.core, dir)
	if err != nil {
		dir.Close()
		return nil, "", fmt.Errorf("aladin: recovering bootstrapped state: %w", err)
	}
	return sys, "segments", nil
}

func hasManifest(path string) bool {
	_, err := os.Stat(filepath.Join(path, store.ManifestName))
	return err == nil
}

// tryRecoverReplica attempts a local recovery; any failure (gap,
// corruption, version mismatch) just means we re-bootstrap.
func tryRecoverReplica(cfg *config, path string) (*core.System, bool) {
	dir, err := store.OpenDir(path)
	if err != nil {
		return nil, false
	}
	sys, _, err := core.Recover(cfg.core, dir)
	if err != nil {
		dir.Close()
		return nil, false
	}
	return sys, true
}

// wipeDir clears every store artifact from a stale replica directory.
// Only called behind the REPLICA-marker check.
func wipeDir(path string) error {
	entries, err := os.ReadDir(path)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.Name() == repl.MarkerName {
			continue
		}
		if err := os.RemoveAll(filepath.Join(path, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// applyBatch journals and applies one WAL batch in sequence order,
// deduplicating frames at or below the locally applied sequence and
// refusing sequence gaps (the stream is dense by construction; a gap
// means a protocol violation, not data to skip).
func (d *DB) applyBatch(batch *repl.WALBatch) error {
	for _, f := range batch.Frames {
		applied := d.sys.SnapshotSeq()
		if f.Rec.Seq <= applied {
			continue
		}
		if f.Rec.Seq != applied+1 {
			return fmt.Errorf("aladin: replication stream gap: applied %d, next frame is %d", applied, f.Rec.Seq)
		}
		if err := d.write(func(sys *core.System) error { return sys.ApplyReplicated(f.Raw, f.Rec) }); err != nil {
			return err
		}
	}
	d.maybeCheckpoint()
	return nil
}

// replicaLoop is the streaming goroutine: long-poll the primary's WAL,
// apply what arrives, update lag; on failure keep serving reads and
// keep retrying.
func (d *DB) replicaLoop(ctx context.Context) {
	defer d.repl.wg.Done()
	backoff := time.Second
	for ctx.Err() == nil {
		batch, err := d.repl.client.WAL(ctx, d.sys.SnapshotSeq(), repl.DefaultWait)
		if err == nil {
			err = d.applyBatch(batch)
		}
		switch {
		case ctx.Err() != nil || errors.Is(err, ErrClosed):
			return
		case err == nil:
			d.repl.observe(batch.PrimarySeq)
			backoff = time.Second
			continue
		case errors.Is(err, repl.ErrTrimmed):
			// The primary checkpointed past us mid-stream. Serving the
			// last good snapshot is still correct (reads are eventually
			// consistent); catching up needs a re-bootstrap, i.e. a
			// restart. Flag it and stop streaming: readiness fails.
			d.repl.fail(ReplStateStale, err)
			return
		default:
			d.repl.fail(ReplStateError, err)
			select {
			case <-ctx.Done():
				return
			case <-time.After(backoff):
			}
			if backoff < 30*time.Second {
				backoff *= 2
			}
		}
	}
}

// replicaGuard rejects mutations on a replica.
func (d *DB) replicaGuard() error {
	if d.repl != nil {
		return fmt.Errorf("%w: writes go to the primary at %s", ErrReadOnlyReplica, d.repl.primary)
	}
	return nil
}

// replicationStats assembles Stats().Replication.
func (d *DB) replicationStats() ReplicationStats {
	if d.repl == nil {
		role := "standalone"
		if d.dir != nil {
			role = "primary"
		}
		return ReplicationStats{Role: role}
	}
	rs := d.repl
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := ReplicationStats{
		Role:              "replica",
		Primary:           rs.primary,
		State:             rs.state,
		AppliedSeq:        d.sys.SnapshotSeq(),
		PrimarySeq:        rs.primarySeq,
		LastSync:          rs.lastSync,
		BootstrapMode:     rs.bootMode,
		BootstrapDuration: rs.bootDuration,
	}
	if out.PrimarySeq > out.AppliedSeq {
		out.Lag = out.PrimarySeq - out.AppliedSeq
	}
	if rs.lastErr != nil {
		out.LastError = rs.lastErr.Error()
	}
	return out
}

// ReplHandler returns the replication API handler (/v1/repl/...) for a
// durable primary, or nil when this database cannot serve replication
// (no data directory, or itself a replica — chaining is not supported).
func (d *DB) ReplHandler() http.Handler {
	if d.dir == nil || d.repl != nil {
		return nil
	}
	return repl.NewServer(d.dir, d.sys.SnapshotSeq)
}
