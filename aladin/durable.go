package aladin

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/store"
)

// This file is the durable side of the DB: opening (recovering) a data
// directory, DML execution, and checkpointing. The discipline mirrors
// AddSource's prepare/commit split: BeginCheckpoint runs under the READ
// lock (mutators take the write lock, so the captured state is
// consistent; concurrent readers are not blocked), and the expensive
// segment encoding runs off-lock against immutable snapshots.

// DurabilityStats reports the state of the write-ahead log and
// checkpoints; the zero value (Enabled=false) means the database was
// opened without WithDataDir.
type DurabilityStats struct {
	Enabled bool
	Dir     string
	// Gen counts completed checkpoints.
	Gen uint64
	// WALRecords / WALBytes measure the mutations journaled since the
	// last checkpoint — the replay work a crash right now would incur.
	WALRecords int
	WALBytes   int64
	// DirtySources is the number of sources the next checkpoint must
	// rewrite; Sources is the number already checkpointed.
	DirtySources   int
	Sources        int
	LastCheckpoint time.Time
	// LastCheckpointError reports the most recent (possibly automatic)
	// checkpoint failure, "" after a success.
	LastCheckpointError string
}

// openDurable opens (or recovers) a durable database from cfg.dataDir.
// The directory is the only on-disk form of a warehouse, so an in-memory
// image (WithSnapshot) cannot seed it.
func openDurable(cfg *config, plans *planCache) (*DB, error) {
	if cfg.snapshot != nil {
		return nil, errors.New("aladin: WithSnapshot cannot be combined with WithDataDir")
	}
	dir, err := store.OpenDir(cfg.dataDir)
	if err != nil {
		return nil, fmt.Errorf("aladin: opening data directory: %w", err)
	}
	sys, _, err := core.Recover(cfg.core, dir)
	if err != nil {
		dir.Close()
		return nil, fmt.Errorf("aladin: recovering %s: %w", dir.Path(), err)
	}
	return &DB{sys: sys, plans: plans, dir: dir, checkpointEvery: cfg.checkpointEvery,
		workers: parallel.Workers(cfg.core.Workers)}, nil
}

// Exec executes one INSERT, UPDATE or DELETE statement against a
// warehouse relation (addressable as "<source>_<relation>", like Query).
// On a durable database the statement is journaled before it is
// acknowledged. Changed-tuple counts feed the §6.2 threshold policy (see
// RecordChanges/Reanalyze); derived artifacts — links, search index,
// duplicate flags — intentionally go stale until Reanalyze.
//
// Like Reanalyze, a statement waits for an in-flight AddSource or
// IngestSource (it takes addMu): their off-lock link discovery reads the
// registered relations and ownership tables that the statement replaces.
// Errors: ErrBadQuery, ErrCanceled, ErrClosed.
func (d *DB) Exec(ctx context.Context, sql string) (*QueryResult, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if err := d.replicaGuard(); err != nil {
		return nil, err
	}
	d.addMu.Lock()
	defer d.addMu.Unlock()
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, ErrClosed
	}
	res, err := d.sys.Exec(sql)
	d.mu.Unlock()
	if err != nil {
		if errors.Is(err, core.ErrDurability) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %w", ErrBadQuery, err)
	}
	d.maybeCheckpoint()
	return res, nil
}

// Checkpoint folds the write-ahead log into per-source segments: only
// sources dirtied since the last checkpoint are re-encoded, the manifest
// is swapped atomically, and the subsumed log files are trimmed. Readers
// and the capture phase overlap; only concurrent checkpoints serialize.
// Errors: ErrClosed, ErrCanceled, or the checkpoint IO error.
func (d *DB) Checkpoint(ctx context.Context) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	if d.dir == nil {
		return errors.New("aladin: no data directory (open with WithDataDir)")
	}
	d.chkMu.Lock()
	defer d.chkMu.Unlock()
	d.mu.RLock()
	err := d.checkOpenRLocked()
	var cp *core.PendingCheckpoint
	if err == nil {
		cp, err = d.sys.BeginCheckpoint()
	}
	d.mu.RUnlock()
	if err == nil {
		err = d.sys.WriteCheckpoint(cp)
	}
	d.chkErrMu.Lock()
	d.lastChkErr = err
	d.chkErrMu.Unlock()
	return err
}

// maybeCheckpoint runs a checkpoint once the WAL has accumulated the
// WithCheckpointEvery threshold. Best-effort: failures surface in
// Stats().Durability.LastCheckpointError, not to the mutating caller
// (whose mutation IS durable — in the log, just not yet in segments).
func (d *DB) maybeCheckpoint() {
	if d.dir == nil || d.checkpointEvery <= 0 {
		return
	}
	if d.sys.WALRecordsSinceCheckpoint() < d.checkpointEvery {
		return
	}
	_ = d.Checkpoint(context.Background())
}

// durabilityStats assembles the Stats().Durability block.
func (d *DB) durabilityStats() DurabilityStats {
	cs, ok := d.sys.DurabilityStats()
	if !ok {
		return DurabilityStats{}
	}
	out := DurabilityStats{
		Enabled:        true,
		Dir:            cs.Dir,
		Gen:            cs.Gen,
		WALRecords:     cs.WALRecords,
		WALBytes:       cs.WALBytes,
		DirtySources:   cs.DirtySources,
		Sources:        cs.Sources,
		LastCheckpoint: cs.LastCheckpoint,
	}
	d.chkErrMu.Lock()
	if d.lastChkErr != nil {
		out.LastCheckpointError = d.lastChkErr.Error()
	}
	d.chkErrMu.Unlock()
	return out
}
