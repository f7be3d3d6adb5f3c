package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/store"
)

// This file glues a System to a durable data directory (store.Dir):
// mutations are journaled to the write-ahead log before they are
// acknowledged, and checkpoints persist only the sources dirtied since
// the previous one. The locking discipline mirrors the prepare/commit
// split of integrations: everything expensive (gob encoding of frames
// and segments) runs off-lock against immutable snapshots; only the WAL
// append and the dirty-set swap happen under the caller's mutation lock.

// durable is the per-System durability state. The System's own mutators
// run serialized by the caller (package aladin's write lock); the inner
// mutex exists because BeginCheckpoint swaps the dirty set under a READ
// lock (it excludes mutators, not other readers) and stats readers look
// at the counters concurrently.
type durable struct {
	dir *store.Dir

	mu      sync.Mutex
	dirty   map[string]bool
	records int
	// logging is false while recovery replays the WAL through the normal
	// mutators: the records being re-applied are already on disk.
	logging bool
	// recovered times the Recover that opened the system, if one did:
	// segment decode, source restore and WAL-tail replay.
	recovered [3]time.Duration
}

// ErrDurability marks failures of the durability layer itself — WAL
// append or checkpoint IO — as opposed to invalid input; callers must
// not acknowledge the mutation (test with errors.Is).
var ErrDurability = errors.New("core: durability failure")

func (d *durable) remerge(dirty map[string]bool, records int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for k := range dirty {
		d.dirty[k] = true
	}
	d.records += records
}

// AttachDurable connects the system to an open data directory: from now
// on every acknowledged mutation is journaled in its WAL. Call before
// any mutation (package aladin attaches at Open).
func (s *System) AttachDurable(dir *store.Dir) {
	s.durable = &durable{dir: dir, dirty: make(map[string]bool), logging: true}
}

// DurableDir returns the attached data directory, nil if none.
func (s *System) DurableDir() *store.Dir {
	if d := s.durable; d != nil {
		return d.dir
	}
	return nil
}

// logFrame assigns the mutation its global sequence number, journals
// the pre-encoded WAL frame (durable systems), and marks the given
// sources dirty for the next checkpoint. Without an attached directory
// only the sequence advances; during recovery replay the append is
// skipped (the record is already on disk) but sequence and dirty
// marking apply. An error means the mutation was NOT made durable and
// must not be acknowledged — the sequence is not consumed.
func (s *System) logFrame(frame []byte, dirty ...string) error {
	seq := s.seq.Load() + 1
	d := s.durable
	if d == nil {
		s.seq.Store(seq)
		return nil
	}
	if d.logging {
		if err := d.dir.Append(frame, seq); err != nil {
			return fmt.Errorf("%w: write-ahead log: %w", ErrDurability, err)
		}
	}
	s.seq.Store(seq)
	d.mu.Lock()
	if d.logging {
		d.records++
	}
	for _, n := range dirty {
		d.dirty[strings.ToLower(n)] = true
	}
	d.mu.Unlock()
	return nil
}

// logRecord encodes and journals one WAL record (see logFrame).
func (s *System) logRecord(rec *store.WALRecord, dirty ...string) error {
	d := s.durable
	var frame []byte
	if d != nil && d.logging {
		var err error
		if frame, err = store.EncodeRecord(rec); err != nil {
			return err
		}
	}
	return s.logFrame(frame, dirty...)
}

// SnapshotSeq returns the global sequence of the last applied mutation
// — the "version" half of the snapshot ID. 0 means an empty history.
func (s *System) SnapshotSeq() uint64 { return s.seq.Load() }

// SnapshotID returns the checkpoint generation (0 without a data
// directory) and the last applied mutation sequence. Together they name
// the exact warehouse state a reader observed.
func (s *System) SnapshotID() (gen, seq uint64) {
	if d := s.durable; d != nil {
		gen = d.dir.Stats().Gen
	}
	return gen, s.seq.Load()
}

// DisableJournal permanently switches off WAL appends from the normal
// mutators while keeping sequence, dirty-set and checkpoint machinery
// live. Replicas run this way: the replication client journals the
// primary's frames verbatim (ApplyReplicated), so applying them must not
// journal a second copy.
func (s *System) DisableJournal() {
	d := s.durable
	if d == nil {
		return
	}
	d.mu.Lock()
	d.logging = false
	d.mu.Unlock()
}

// walRecord builds the WAL record of a prepared integration: the batch's
// tuples plus every candidate link its commit will store — replaying the
// candidates through the repository's dedup and feedback filters
// reproduces exactly the stored set. A fresh source's record
// (RecAddSource) carries its discovered structure and profiles; a batch
// appended to an existing source (RecAppend) leaves them nil — the
// registered metadata governs, and replay reads it from the registry.
func walRecord(p *Pending) *store.WALRecord {
	rec := &store.WALRecord{
		Type: store.RecAppend,
		Source: &store.SourceSnapshot{
			Name:       p.name,
			Relations:  store.SnapshotDatabase(p.batch),
			TupleCount: p.batch.TotalTuples(),
		},
		Links: p.links,
	}
	if p.fresh {
		rec.Type = store.RecAddSource
		rec.Source.Structure, rec.Source.Profiles = p.structure, p.profs
	}
	return rec
}

// WALRecordsSinceCheckpoint returns the number of mutations journaled
// (or replayed at recovery) since the last completed checkpoint — the
// replay work a crash right now would incur.
func (s *System) WALRecordsSinceCheckpoint() int {
	d := s.durable
	if d == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.records
}

// PendingCheckpoint is a captured-but-unwritten checkpoint: immutable
// references taken under the mutation lock by BeginCheckpoint, encoded
// and written off-lock by WriteCheckpoint.
type PendingCheckpoint struct {
	data     *store.CheckpointData
	dirtySet map[string]bool
	dirty    []pinnedSource
	records  int
}

// Dirty returns the number of sources this checkpoint will rewrite.
func (cp *PendingCheckpoint) Dirty() int { return len(cp.dirty) }

// BeginCheckpoint captures everything the checkpoint persists and
// rotates the WAL. It must run excluding mutators (package aladin holds
// its read lock, which mutators take exclusively) but does no encoding
// or IO beyond creating the next WAL file: relations are immutable once
// published, so shallow-cloned references stay consistent off-lock.
func (s *System) BeginCheckpoint() (*PendingCheckpoint, error) {
	d := s.durable
	if d == nil {
		return nil, errors.New("core: no data directory attached")
	}
	d.mu.Lock()
	dirty := d.dirty
	records := d.records
	d.dirty = make(map[string]bool)
	d.records = 0
	d.mu.Unlock()

	seq, err := d.dir.Rotate()
	if err != nil {
		d.remerge(dirty, records)
		return nil, fmt.Errorf("core: rotating WAL: %w", err)
	}
	cp := &PendingCheckpoint{
		// The record sequence is exact here: BeginCheckpoint excludes
		// mutators, so s.seq is precisely the last record before the
		// rotation — the new manifest anchors the counter there.
		data:     &store.CheckpointData{WALSeq: seq, RecordSeq: s.seq.Load()},
		dirtySet: dirty,
		records:  records,
	}
	for _, m := range s.Repo.Sources() {
		cp.data.Order = append(cp.data.Order, m.Name)
		if dirty[strings.ToLower(m.Name)] {
			if ps, ok := s.pin(m); ok {
				cp.dirty = append(cp.dirty, ps)
			}
		}
	}
	cp.data.Links = s.Repo.AllLinks()
	cp.data.Removed = s.Repo.RemovedLinks()
	return cp, nil
}

// WriteCheckpoint encodes the dirty sources' segments and completes the
// checkpoint (segments, links, manifest swap, WAL trim). Runs entirely
// off-lock. On failure the captured dirty set is merged back so the
// next checkpoint retries those sources.
func (s *System) WriteCheckpoint(cp *PendingCheckpoint) error {
	d := s.durable
	if d == nil {
		return errors.New("core: no data directory attached")
	}
	for _, ps := range cp.dirty {
		cp.data.Dirty = append(cp.data.Dirty, ps.image())
	}
	if err := d.dir.CompleteCheckpoint(cp.data); err != nil {
		d.remerge(cp.dirtySet, cp.records)
		return err
	}
	return nil
}

// DurabilityStats reports the durability state for monitoring; ok is
// false when no data directory is attached.
type DurabilityStats struct {
	Dir            string
	Gen            uint64
	WALSeq         uint64
	WALRecords     int
	WALBytes       int64
	DirtySources   int
	Sources        int
	LastCheckpoint time.Time
	// RecoverDecode, RecoverRestore and RecoverReplay time the Recover
	// that opened the system: decoding the checkpoint's segments,
	// restoring their sources (search index included) and replaying the
	// WAL tail. All are zero for a directory attached empty.
	RecoverDecode, RecoverRestore, RecoverReplay time.Duration
}

// DurabilityStats returns the current durability state.
func (s *System) DurabilityStats() (DurabilityStats, bool) {
	d := s.durable
	if d == nil {
		return DurabilityStats{}, false
	}
	ds := d.dir.Stats()
	d.mu.Lock()
	dirty := len(d.dirty)
	records := d.records
	rt := d.recovered
	d.mu.Unlock()
	return DurabilityStats{
		Dir:            ds.Path,
		Gen:            ds.Gen,
		WALSeq:         ds.WALSeq,
		WALRecords:     records,
		WALBytes:       ds.WALBytes,
		DirtySources:   dirty,
		Sources:        ds.Sources,
		LastCheckpoint: ds.LastCheckpoint,
		RecoverDecode:  rt[0],
		RecoverRestore: rt[1],
		RecoverReplay:  rt[2],
	}, true
}
