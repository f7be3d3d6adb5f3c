package store

import (
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"strings"

	"repro/internal/metadata"
)

// The durable directory format (see dir.go for the lifecycle):
//
//	<dir>/MANIFEST            active segment list + live WAL sequence
//	<dir>/wal-<seq>.log       append-only WAL files (wal.go)
//	<dir>/seg-<src>-<gen>.seg one checkpoint segment per source
//	<dir>/links-<gen>.seg     the link repository + feedback segment
//
// Segments are immutable once written: a checkpoint writes NEW files
// for the sources dirtied since the last checkpoint, reuses the
// existing files of clean sources verbatim (their RelationSnapshot
// encoding never changes while the source doesn't), and then swaps the
// MANIFEST atomically. The MANIFEST is the single commit point: until
// the rename lands, recovery sees the previous checkpoint plus the
// complete WAL; after it, the new segments plus the rotated WAL tail.

const (
	manifestMagic = "ALMF1\n"
	segmentMagic  = "ALSG1\n"
	linksMagic    = "ALLK1\n"

	// ManifestName is the manifest file name inside a data directory.
	ManifestName = "MANIFEST"
)

// ManifestVersion identifies the directory-format layout. Version 2
// added RecordSeq (and the WAL v2 per-frame sequence it anchors);
// version-1 directories are rejected with a clear error — re-ingest or
// re-bootstrap to migrate.
const ManifestVersion = 2

// SegmentRef names the active checkpoint segment of one source.
type SegmentRef struct {
	Source string
	File   string
}

// Manifest is the durable root of a data directory.
type Manifest struct {
	Version int
	// Gen increments with every completed checkpoint.
	Gen uint64
	// WALSeq is the first live WAL sequence number: recovery replays
	// every wal-<seq>.log with seq >= WALSeq, in order.
	WALSeq uint64
	// RecordSeq is the global sequence of the last mutation the
	// checkpoint segments subsume (0 before any mutation). Live WAL
	// records continue at RecordSeq+1; replication streams are addressed
	// relative to it, and recovery seeds the mutation counter from it.
	RecordSeq uint64
	// Sources lists the active per-source segments in registration order.
	Sources []SegmentRef
	// LinksFile is the active link-repository segment ("" before the
	// first checkpoint).
	LinksFile string
}

// linksSegment is the payload of a links-<gen>.seg file.
type linksSegment struct {
	Links   []metadata.Link
	Removed []metadata.Link
}

func writeMagic(w io.Writer, magic string) error {
	_, err := io.WriteString(w, magic)
	return err
}

func checkMagic(r io.Reader, magic, what string) error {
	hdr := make([]byte, len(magic))
	if _, err := io.ReadFull(r, hdr); err != nil {
		return fmt.Errorf("store: reading %s header: %w", what, err)
	}
	if string(hdr) != magic {
		return fmt.Errorf("store: %s has bad magic %q (not a %s, or an unsupported version)", what, hdr, what)
	}
	return nil
}

// writeManifest durably writes the manifest (temp, fsync, rename,
// directory fsync) — the atomic checkpoint commit point.
func writeManifest(path string, m *Manifest) error {
	m.Version = ManifestVersion
	return atomicWriteFile(path, func(w io.Writer) error {
		if err := writeMagic(w, manifestMagic); err != nil {
			return err
		}
		return gob.NewEncoder(w).Encode(m)
	})
}

// readManifest loads and validates a manifest file.
func readManifest(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := checkMagic(f, manifestMagic, "manifest"); err != nil {
		return nil, err
	}
	var m Manifest
	if err := gob.NewDecoder(f).Decode(&m); err != nil {
		return nil, fmt.Errorf("store: decoding manifest: %w", err)
	}
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("store: unsupported manifest version %d (want %d)", m.Version, ManifestVersion)
	}
	return &m, nil
}

// writeSegment durably writes one source's checkpoint segment.
func writeSegment(path string, ss *SourceSnapshot) error {
	return atomicWriteFile(path, func(w io.Writer) error {
		if err := writeMagic(w, segmentMagic); err != nil {
			return err
		}
		enc := gob.NewEncoder(w)
		if err := enc.Encode(ss); err != nil || ss.batches == nil {
			return err
		}
		return enc.Encode(ss.batches)
	})
}

// readSegment loads one source segment.
func readSegment(path string) (*SourceSnapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := checkMagic(f, segmentMagic, "segment"); err != nil {
		return nil, err
	}
	var ss SourceSnapshot
	dec := gob.NewDecoder(f)
	if err := dec.Decode(&ss); err != nil {
		return nil, fmt.Errorf("store: decoding segment %s: %w", path, err)
	}
	// The batches follow the image; a segment without them ends here.
	if err := dec.Decode(&ss.batches); err != nil && err != io.EOF {
		return nil, fmt.Errorf("store: decoding segment %s batches: %w", path, err)
	}
	return &ss, nil
}

// writeLinksSegment durably writes the link-repository segment.
func writeLinksSegment(path string, links, removed []metadata.Link) error {
	return atomicWriteFile(path, func(w io.Writer) error {
		if err := writeMagic(w, linksMagic); err != nil {
			return err
		}
		return gob.NewEncoder(w).Encode(&linksSegment{Links: links, Removed: removed})
	})
}

// readLinksSegment loads the link-repository segment.
func readLinksSegment(path string) (*linksSegment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := checkMagic(f, linksMagic, "links segment"); err != nil {
		return nil, err
	}
	var ls linksSegment
	if err := gob.NewDecoder(f).Decode(&ls); err != nil {
		return nil, fmt.Errorf("store: decoding links segment %s: %w", path, err)
	}
	return &ls, nil
}

// segmentFileName builds a unique, filesystem-safe segment name for one
// source at one checkpoint generation. The fnv suffix disambiguates
// source names that sanitize to the same string.
func segmentFileName(source string, gen uint64) string {
	h := fnv.New32a()
	h.Write([]byte(strings.ToLower(source)))
	san := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '_'
		}
	}, source)
	if len(san) > 32 {
		san = san[:32]
	}
	return fmt.Sprintf("seg-%s-%08x-%08d.seg", san, h.Sum32(), gen)
}
