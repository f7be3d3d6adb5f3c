package store

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/metadata"
)

// Dir is an open durable data directory: the manifest, its segments,
// and the live WAL. The lifecycle is
//
//	d, _ := OpenDir(path)      // validates or initializes the directory
//	snap, _ := d.Load()        // state as of the last checkpoint
//	d.Replay(apply)            // WAL tail: mutations since the checkpoint
//	d.Append(frame)            // journal new mutations
//	d.Rotate()                 // checkpoint capture point (under lock)
//	d.CompleteCheckpoint(data) // write segments, swap manifest, trim WAL
//
// Methods are safe for the caller pattern of package aladin: Append and
// Rotate run under the database write/read locks, CompleteCheckpoint
// runs off-lock; an internal mutex keeps Stats consistent with them.
// Two concurrent checkpoints must be serialized by the caller.
type Dir struct {
	path string

	mu             sync.Mutex
	manifest       *Manifest
	wal            *WAL
	walSeq         uint64
	lastCheckpoint time.Time
	pending        []*WALRecord

	// Failpoint, when non-nil, is consulted at named stages of
	// CompleteCheckpoint and WAL appends; a non-nil error aborts the
	// operation leaving the directory exactly as a crash at that point
	// would. Test hook only.
	Failpoint func(stage string) error
}

// OpenDir opens (or initializes) a durable data directory.
func OpenDir(path string) (*Dir, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, err
	}
	d := &Dir{path: path}
	mpath := filepath.Join(path, ManifestName)
	m, err := readManifest(mpath)
	switch {
	case err == nil:
		d.manifest = m
		if fi, err := os.Stat(mpath); err == nil {
			d.lastCheckpoint = fi.ModTime()
		}
	case os.IsNotExist(err):
		d.manifest = &Manifest{Version: ManifestVersion, Gen: 0, WALSeq: 1}
		if err := writeManifest(mpath, d.manifest); err != nil {
			return nil, err
		}
	default:
		return nil, err
	}

	// Open the live WAL files: replay-scan all of them in sequence
	// order, truncate the newest at its last intact record, and keep it
	// open for appends. Files below the manifest's WALSeq are leftovers
	// of a checkpoint that crashed after the manifest swap; they are
	// ignored and cleaned up below.
	seqs, err := d.walSequences()
	if err != nil {
		return nil, err
	}
	live := seqs[:0:0]
	for _, s := range seqs {
		if s >= d.manifest.WALSeq {
			live = append(live, s)
		}
	}
	if len(live) == 0 {
		d.walSeq = d.manifest.WALSeq
		w, err := CreateWAL(d.walFile(d.walSeq))
		if err != nil {
			return nil, err
		}
		d.wal = w
	} else {
		// The live files must be exactly WALSeq, WALSeq+1, ... — a hole
		// means acknowledged mutations are gone, and everything after the
		// hole may depend on them. Refuse to open rather than silently
		// replay around it.
		if live[0] != d.manifest.WALSeq {
			return nil, fmt.Errorf("store: wal-%08d.log is missing (manifest expects the live WAL to start there, first present is wal-%08d.log): %w",
				d.manifest.WALSeq, live[0], ErrWALGap)
		}
		for i := 1; i < len(live); i++ {
			if live[i] != live[i-1]+1 {
				return nil, fmt.Errorf("store: wal-%08d.log is missing (wal-%08d.log and wal-%08d.log are both present): %w",
					live[i-1]+1, live[i-1], live[i], ErrWALGap)
			}
		}
		for i, s := range live {
			if i == len(live)-1 {
				w, recs, err := OpenWAL(d.walFile(s))
				if err != nil {
					return nil, err
				}
				d.wal, d.walSeq = w, s
				d.pending = append(d.pending, recs...)
			} else {
				recs, _, err := ScanWAL(d.walFile(s))
				if err != nil {
					return nil, err
				}
				d.pending = append(d.pending, recs...)
			}
		}
	}
	// Record sequences must be dense from the checkpoint onward. A jump
	// inside the pending tail means a corrupt record in a non-final WAL
	// file swallowed acknowledged mutations mid-stream — distinct from a
	// torn tail, which only ever loses the unacknowledged end.
	expect := d.manifest.RecordSeq
	for _, rec := range d.pending {
		if rec.Seq != expect+1 {
			return nil, fmt.Errorf("store: WAL record sequence jumps from %d to %d: %w", expect, rec.Seq, ErrWALGap)
		}
		expect = rec.Seq
	}
	d.cleanup()
	return d, nil
}

// Path returns the directory path.
func (d *Dir) Path() string { return d.path }

// Load reads the checkpointed state: every active segment plus the
// links segment, assembled into a Snapshot.
func (d *Dir) Load() (*Snapshot, error) {
	d.mu.Lock()
	m := d.manifest
	d.mu.Unlock()
	snap := &Snapshot{}
	for _, ref := range m.Sources {
		ss, err := readSegment(filepath.Join(d.path, ref.File))
		if err != nil {
			return nil, fmt.Errorf("store: loading segment for %s: %w", ref.Source, err)
		}
		snap.Sources = append(snap.Sources, *ss)
	}
	if m.LinksFile != "" {
		ls, err := readLinksSegment(filepath.Join(d.path, m.LinksFile))
		if err != nil {
			return nil, err
		}
		snap.Links, snap.Removed = ls.Links, ls.Removed
	}
	return snap, nil
}

// Replay hands the WAL tail — every intact record since the last
// checkpoint — to apply, in append order, then drops the replay buffer.
// It returns the number of records replayed.
func (d *Dir) Replay(apply func(*WALRecord) error) (int, error) {
	d.mu.Lock()
	recs := d.pending
	d.pending = nil
	d.mu.Unlock()
	for i, rec := range recs {
		if err := apply(rec); err != nil {
			return i, fmt.Errorf("store: replaying WAL record %d: %w", i, err)
		}
	}
	return len(recs), nil
}

// Append durably journals one pre-encoded record frame (see
// EncodeRecord), stamping seq into its header. Callers serialize
// appends with mutations and hand out dense sequence numbers.
func (d *Dir) Append(frame []byte, seq uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.wal.failpoint = d.Failpoint
	return d.wal.Append(frame, seq)
}

// Rotate switches appends to a fresh WAL file and returns its sequence
// number. It is the checkpoint capture point: the caller invokes it
// under the same exclusion it uses for Append, having captured the
// in-memory state the WAL-so-far describes; the checkpoint that follows
// subsumes every record before the rotation, while new mutations land
// in the new file and stay live across the manifest swap.
func (d *Dir) Rotate() (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	next := d.walSeq + 1
	w, err := CreateWAL(d.walFile(next))
	if err != nil {
		return 0, err
	}
	if err := d.wal.Close(); err != nil {
		w.Close()
		os.Remove(d.walFile(next))
		return 0, err
	}
	d.wal, d.walSeq = w, next
	return next, nil
}

// CheckpointData is the input to CompleteCheckpoint: the re-encoded
// snapshots of the sources dirtied since the last checkpoint, the full
// source order, and the link repository.
type CheckpointData struct {
	// Dirty holds the sources whose segments must be rewritten.
	Dirty []SourceSnapshot
	// Order lists ALL sources in registration order; sources not in
	// Dirty keep their existing segment file untouched.
	Order []string
	// WALSeq is the rotation point returned by Rotate: the new manifest
	// marks WAL files below it as subsumed.
	WALSeq uint64
	// RecordSeq is the global sequence of the last mutation captured in
	// this checkpoint; the new manifest anchors the record counter there.
	RecordSeq uint64
	Links     []metadata.Link
	Removed   []metadata.Link
}

// CompleteCheckpoint writes the dirty sources' segments and the links
// segment, atomically swaps the manifest, and trims subsumed WAL files
// and orphaned segments. Runs off-lock; on error the directory is left
// in a state recovery handles (the old manifest stays active until the
// swap lands).
func (d *Dir) CompleteCheckpoint(data *CheckpointData) error {
	d.mu.Lock()
	old := d.manifest
	d.mu.Unlock()
	gen := old.Gen + 1

	newFiles := make(map[string]string, len(data.Dirty))
	for i := range data.Dirty {
		ss := &data.Dirty[i]
		file := segmentFileName(ss.Name, gen)
		if err := d.fail("segment:"+ss.Name, func() {
			d.tearFile(filepath.Join(d.path, file)+".tmp", segmentMagic, ss)
		}); err != nil {
			return err
		}
		if err := writeSegment(filepath.Join(d.path, file), ss); err != nil {
			return fmt.Errorf("store: writing segment for %s: %w", ss.Name, err)
		}
		newFiles[keyOf(ss.Name)] = file
	}

	linksFile := fmt.Sprintf("links-%08d.seg", gen)
	if err := d.fail("links", func() {
		d.tearFile(filepath.Join(d.path, linksFile)+".tmp", linksMagic, &linksSegment{Links: data.Links})
	}); err != nil {
		return err
	}
	if err := writeLinksSegment(filepath.Join(d.path, linksFile), data.Links, data.Removed); err != nil {
		return err
	}

	next := &Manifest{Version: ManifestVersion, Gen: gen, WALSeq: data.WALSeq, RecordSeq: data.RecordSeq, LinksFile: linksFile}
	oldFiles := make(map[string]string, len(old.Sources))
	for _, ref := range old.Sources {
		oldFiles[keyOf(ref.Source)] = ref.File
	}
	for _, name := range data.Order {
		file, ok := newFiles[keyOf(name)]
		if !ok {
			if file, ok = oldFiles[keyOf(name)]; !ok {
				return fmt.Errorf("store: checkpoint: source %q is neither dirty nor in the previous manifest", name)
			}
		}
		next.Sources = append(next.Sources, SegmentRef{Source: name, File: file})
	}

	if err := d.fail("manifest", func() {
		d.tearFile(filepath.Join(d.path, ManifestName)+".tmp", manifestMagic, next)
	}); err != nil {
		return err
	}
	if err := writeManifest(filepath.Join(d.path, ManifestName), next); err != nil {
		return err
	}

	d.mu.Lock()
	d.manifest = next
	d.lastCheckpoint = time.Now()
	d.mu.Unlock()

	if err := d.fail("trim", nil); err != nil {
		return err
	}
	d.cleanup()
	return nil
}

// fail triggers the test failpoint; onCrash, when non-nil, plants the
// partial on-disk state a kill at that stage would leave.
func (d *Dir) fail(stage string, onCrash func()) error {
	if d.Failpoint == nil {
		return nil
	}
	if err := d.Failpoint(stage); err != nil {
		if onCrash != nil {
			onCrash()
		}
		return err
	}
	return nil
}

// tearFile writes the first half of an encoded artifact to path — the
// torn temp file a mid-write crash leaves behind. Recovery must ignore
// such files.
func (d *Dir) tearFile(path, magic string, v any) {
	var buf bytes.Buffer
	buf.WriteString(magic)
	if gob.NewEncoder(&buf).Encode(v) == nil {
		os.WriteFile(path, buf.Bytes()[:buf.Len()/2], 0o644)
	}
}

// DirStats reports the durability state for monitoring.
type DirStats struct {
	Path string
	// Gen is the completed checkpoint generation (0 = none yet).
	Gen uint64
	// WALSeq is the live WAL sequence number.
	WALSeq uint64
	// WALRecords / WALBytes measure the current WAL file — the replay
	// work a crash right now would incur on top of the last checkpoint.
	WALRecords int
	WALBytes   int64
	// LastCheckpoint is when the manifest was last swapped (the manifest
	// file's mtime when the directory was opened by this process).
	LastCheckpoint time.Time
	// Sources is the number of checkpointed source segments.
	Sources int
	// RecordSeq is the global sequence the last checkpoint subsumed
	// (manifest RecordSeq); the live warehouse sequence is tracked by
	// package core, not here.
	RecordSeq uint64
}

// Stats returns a consistent view of the durability state.
func (d *Dir) Stats() DirStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DirStats{
		Path:           d.path,
		Gen:            d.manifest.Gen,
		WALSeq:         d.walSeq,
		WALRecords:     d.wal.Records() + len(d.pending),
		WALBytes:       d.wal.Bytes(),
		LastCheckpoint: d.lastCheckpoint,
		Sources:        len(d.manifest.Sources),
		RecordSeq:      d.manifest.RecordSeq,
	}
}

// Close flushes and closes the live WAL.
func (d *Dir) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.wal.Close()
}

// cleanup removes files no longer reachable from the manifest: temp
// files, WAL files below the live sequence, and segments the last
// manifest swap orphaned. Best-effort — recovery never reads them.
func (d *Dir) cleanup() {
	d.mu.Lock()
	m := d.manifest
	d.mu.Unlock()
	live := map[string]bool{m.LinksFile: true}
	for _, ref := range m.Sources {
		live[ref.File] = true
	}
	entries, err := os.ReadDir(d.path)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case filepath.Ext(name) == ".tmp":
		case name == ManifestName:
			continue
		case len(name) > 4 && name[:4] == "wal-":
			var seq uint64
			if _, err := fmt.Sscanf(name, "wal-%d.log", &seq); err != nil || seq >= m.WALSeq {
				continue
			}
		case filepath.Ext(name) == ".seg":
			if live[name] {
				continue
			}
		default:
			continue
		}
		os.Remove(filepath.Join(d.path, name))
	}
}

// walSequences lists the wal-<seq>.log sequence numbers present.
func (d *Dir) walSequences() ([]uint64, error) {
	entries, err := os.ReadDir(d.path)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		var seq uint64
		if _, err := fmt.Sscanf(e.Name(), "wal-%d.log", &seq); err == nil && filepath.Ext(e.Name()) == ".log" {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

func (d *Dir) walFile(seq uint64) string {
	return filepath.Join(d.path, fmt.Sprintf("wal-%08d.log", seq))
}
