package core

// Persistence and replay. A System is rebuilt from persisted source
// images — the segments of a checkpoint, the RecAddSource and RecAppend
// records of a WAL tail, the frames a replication primary relays — by
// the same publish that commits live integrations. restore is the front
// door: it turns an image into a Pending WITHOUT running the pipeline.
// Structure and profiles come from the image (or, for an appended batch,
// from the registry), the duplicate records are bucketed without
// comparing, and the links come from the record or the links segment —
// §6.2 stresses how costly re-computation is, so replay performs no
// sequence, text or duplicate comparison at all. Reanalyze remains the
// way to force a fresh derivation.

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/dup"
	"repro/internal/linkdisc"
	"repro/internal/metadata"
	"repro/internal/profile"
	"repro/internal/rel"
	"repro/internal/store"
)

// ErrNoStructure rejects a persisted source that does not carry the
// structure and profiles discovered when it was integrated: every
// supported format writes them, and replay never re-derives them.
var ErrNoStructure = errors.New("core: persisted source has no discovered structure")

// Snapshot captures the full integrated warehouse — every source's image,
// the link repository, and user feedback — in registration order.
func (s *System) Snapshot() *store.Snapshot {
	snap := &store.Snapshot{Links: s.Repo.AllLinks(), Removed: s.Repo.RemovedLinks()}
	for _, m := range s.Repo.Sources() {
		if ps, ok := s.pin(m); ok {
			snap.Sources = append(snap.Sources, ps.image())
		}
	}
	return snap
}

// pinnedSource is what a registered source's persisted image is built
// from, taken at one instant.
type pinnedSource struct {
	db      *rel.Database
	meta    *metadata.SourceMeta
	batches [][]int
}

// pin captures registered source m: a shallow clone of its relations
// (DML replaces relations in the live database but never mutates
// published ones, so the clone encodes consistently later, off-lock),
// its registered metadata, and the batch sizes its ownership table was
// built from. It reports false for a source without data.
func (s *System) pin(m *metadata.SourceMeta) (pinnedSource, bool) {
	key := strings.ToLower(m.Name)
	db := s.sources[key]
	if db == nil {
		return pinnedSource{}, false
	}
	db = db.ShallowClone()
	return pinnedSource{db: db, meta: m, batches: s.engine.Source(key).Owners().Batches(db)}, true
}

// image encodes a pinned source — the one place a checkpoint segment and
// a Snapshot entry are assembled. Restore rebuilds the ownership table
// batch by batch from the recorded batches.
func (ps pinnedSource) image() store.SourceSnapshot {
	ss := store.SourceSnapshot{
		Name:       ps.meta.Name,
		Relations:  store.SnapshotDatabase(ps.db),
		Structure:  ps.meta.Structure,
		Profiles:   ps.meta.Profiles,
		TupleCount: ps.meta.TupleCount,
	}
	ss.SetBatches(ps.batches)
	return ss
}

// restore publishes one persisted source image with the candidate links
// journaled beside it (none for a segment: its links replay from the
// links segment). An image with a structure is a whole source the system
// must not hold yet; one without is a batch for a source it must hold.
func (s *System) restore(ss *store.SourceSnapshot, links []metadata.Link) error {
	p := &Pending{
		batch:     store.RestoreDatabase(ss.Name, ss.Relations),
		key:       strings.ToLower(ss.Name),
		name:      ss.Name,
		structure: ss.Structure,
		profs:     ss.Profiles,
		links:     links,
	}
	srcDB, exists := s.sources[p.key]
	switch {
	case exists && ss.Structure != nil:
		return fmt.Errorf("%w: %q", ErrSourceExists, ss.Name)
	case exists:
		meta := s.Repo.Source(ss.Name)
		p.name, p.structure, p.profs = meta.Name, meta.Structure, meta.Profiles
		for _, br := range p.batch.Relations() {
			if len(br.Tuples) > 0 && srcDB.Relation(br.Name) == nil {
				return fmt.Errorf("core: appended batch: source %q has no relation %q", ss.Name, br.Name)
			}
		}
	case ss.Structure == nil || ss.Profiles == nil:
		return fmt.Errorf("%w: %q", ErrNoStructure, ss.Name)
	default:
		p.fresh = true
		p.registeredTuples = ss.TupleCount
		for _, r := range p.batch.Relations() {
			// Segments written before stats were persisted restore without
			// a statistics block; rebuild one from the profiles so the
			// planner never regresses to guesses.
			if r.Stats == nil {
				r.Stats = profile.RelationStats(r, p.profs)
			}
		}
	}
	// A whole source's image rebuilds the ownership table batch by batch,
	// as the system held it; a journaled batch is one batch. No other form
	// is built: the registered source's are rebuilt when next read.
	var err error
	if p.src, err = linkdisc.NewSource(p.batch, p.structure, p.profs, ss.Batches()); err != nil {
		return err
	}
	// Bucket the records into the incremental duplicate index without
	// comparing: later integrations compare against them.
	p.records = dup.RecordsFromSource(p.batch, p.structure)
	s.dupIndex.Add(p.records)
	// Hash indexes are never part of any on-disk encoding; stage rebuilds
	// them, with the browse order and search postings, from the tuples.
	if err := s.stage(p); err != nil {
		s.unwind(p)
		return err
	}
	_, err = s.publish(p)
	return err
}

// load publishes a snapshot's sources, then its feedback, then its
// links — feedback first, so removed links cannot re-enter.
func (s *System) load(snap *store.Snapshot) error {
	for i := range snap.Sources {
		if err := s.restore(&snap.Sources[i], nil); err != nil {
			return err
		}
	}
	for _, l := range snap.Removed {
		s.Repo.RemoveLink(l)
	}
	for _, l := range snap.Links {
		s.Repo.AddLink(l)
	}
	return nil
}

// Load rebuilds a System from an in-memory image (see Snapshot).
func Load(opts Options, snap *store.Snapshot) (*System, error) {
	sys := New(opts)
	if err := sys.load(snap); err != nil {
		return nil, err
	}
	return sys, nil
}

// Recover rebuilds a System from an open data directory: the last
// checkpoint's segments are published, then the WAL tail — every
// mutation acknowledged after that checkpoint — replays (with
// journaling disabled; the records are already on disk). Replayed
// sources are marked dirty so the next checkpoint folds them into
// segments. Returns the number of WAL records replayed.
func Recover(opts Options, dir *store.Dir) (*System, int, error) {
	t0 := time.Now()
	snap, err := dir.Load()
	if err != nil {
		return nil, 0, err
	}
	var rt [3]time.Duration // decode, restore, replay
	rt[0] = time.Since(t0)
	sys := New(opts)
	sys.durable = &durable{dir: dir, dirty: make(map[string]bool)}
	// Seed the mutation sequence where the checkpoint left it; replaying
	// the WAL tail advances it record by record (applyWAL syncs it to
	// each frame's header sequence).
	sys.seq.Store(dir.ManifestCopy().RecordSeq)
	t0 = time.Now()
	if err := sys.load(snap); err != nil {
		return nil, 0, err
	}
	rt[1], t0 = time.Since(t0), time.Now()
	n, err := dir.Replay(sys.applyWAL)
	if err != nil {
		return nil, n, err
	}
	rt[2] = time.Since(t0)
	d := sys.durable
	d.mu.Lock()
	d.records = n
	d.logging = true
	d.recovered = rt
	d.mu.Unlock()
	return sys, n, nil
}

// applyWAL re-applies one journaled mutation during recovery or
// replication. Journaling is off, so each case advances the sequence
// and marks its source dirty without writing a second copy.
func (s *System) applyWAL(rec *store.WALRecord) error {
	switch rec.Type {
	case store.RecAddSource, store.RecAppend:
		if rec.Source == nil {
			return errors.New("core: source-data WAL record without a snapshot")
		}
		// The candidate links pass through the repository's dedup and
		// feedback filters, exactly as the original commit's did (feedback
		// journaled earlier in the WAL has already replayed).
		if err := s.restore(rec.Source, rec.Links); err != nil {
			return err
		}
		if err := s.logFrame(nil, rec.Source.Name); err != nil {
			return err
		}
	case store.RecDML:
		if _, err := s.Exec(rec.SQL); err != nil {
			return fmt.Errorf("core: replaying DML %q: %w", rec.SQL, err)
		}
	case store.RecReanalyze:
		if _, err := s.Reanalyze(rec.SourceName); err != nil {
			return fmt.Errorf("core: replaying re-analysis of %q: %w", rec.SourceName, err)
		}
	case store.RecRemoveLink:
		if rec.Link == nil {
			return errors.New("core: RemoveLink WAL record without a link")
		}
		if _, err := s.RemoveLinkFeedback(*rec.Link); err != nil {
			return err
		}
	default:
		return fmt.Errorf("core: unknown WAL record type %d", rec.Type)
	}
	// The case above already advanced the sequence by one; syncing to the
	// frame's own header sequence keeps replay exact even if the two ever
	// disagree (the on-disk numbering is authoritative).
	if rec.Seq != 0 {
		s.seq.Store(rec.Seq)
	}
	return nil
}

// ApplyReplicated journals one frame received from a replication
// primary verbatim into the local WAL and applies its decoded record
// through applyWAL. The caller serializes it with every other mutator
// (package aladin holds its write lock) — journaling and applying under
// the same exclusion keeps the local directory's record sequences dense
// across replica checkpoints, so a restarted replica recovers from its
// own segments + WAL tail and resumes streaming at exactly
// SnapshotSeq()+1.
//
// The system must be in DisableJournal mode: applying the record would
// otherwise journal a second copy.
func (s *System) ApplyReplicated(frame []byte, rec *store.WALRecord) error {
	d := s.durable
	if d != nil {
		if err := d.dir.Append(frame, rec.Seq); err != nil {
			return fmt.Errorf("%w: replica journal: %w", ErrDurability, err)
		}
	}
	if err := s.applyWAL(rec); err != nil {
		return err
	}
	if d != nil {
		// applyWAL skips the records counter (journaling is off); count
		// the mutation here so checkpoint thresholds see replica traffic.
		d.mu.Lock()
		d.records++
		d.mu.Unlock()
	}
	return nil
}
