package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/metadata"
)

// The write-ahead log makes every acknowledged mutation durable before
// it becomes visible: AddSource commits, DML statements, and link
// feedback are appended (and fsynced) as length-prefixed,
// CRC-checksummed records. On replay the log is truncated at the first
// torn or corrupt record — everything before it was acknowledged,
// everything after it never was.
//
// Frame layout, all little-endian:
//
//	[4 bytes] payload length n
//	[4 bytes] CRC-32 (IEEE) of the payload
//	[8 bytes] global record sequence number
//	[n bytes] payload = gob(WALRecord)
//
// The sequence number lives in the frame header — outside the gob
// payload and the CRC — so a frame can be encoded off-lock and stamped
// with its final sequence under the commit lock without re-encoding.
// Sequence numbers are global and dense: the first mutation of a fresh
// directory is 1, and every later mutation is exactly prev+1, across
// WAL rotations and checkpoints. They are what replication streams are
// addressed by, what replicas deduplicate on, and what snapshot IDs
// pin cursors to.
//
// Each WAL file starts with walMagic (which embeds the format version).

// walMagic prefixes every WAL file; the trailing digit is the version.
// Version 2 added the per-frame sequence number for replication.
const walMagic = "ALWAL2\n"

// walFrameHeader is the per-record header size: u32 length + u32 CRC +
// u64 sequence.
const walFrameHeader = 16

// maxWALRecord bounds a single record payload (a defense against
// interpreting corruption as a gigantic length and allocating it).
const maxWALRecord = 1 << 30

// ErrWALGap marks a hole in the write-ahead log — a missing WAL file
// between two present ones, or non-consecutive record sequences. Replay
// refuses to skip over a gap: everything after it may depend on the
// missing mutations. Test with errors.Is.
var ErrWALGap = errors.New("store: gap in the write-ahead log")

// RecordType tags one WAL record.
type RecordType uint8

const (
	// RecAddSource is a committed source addition: the full source
	// snapshot plus the candidate links its commit stored.
	RecAddSource RecordType = 1
	// RecDML is one INSERT/UPDATE/DELETE statement against a source's
	// relation, replayed by re-executing the SQL.
	RecDML RecordType = 2
	// RecRemoveLink is user feedback deleting a link (§6.2); replay must
	// keep honoring it.
	RecRemoveLink RecordType = 3
	// RecAppend is one committed batch of records appended to an existing
	// source by the streaming ingestion path. It reuses the RecAddSource
	// fields: Source carries the batch tuples only (Name = the source
	// appended to, Relations = the batch's rows, TupleCount = the batch's
	// tuple count, Structure/Profiles nil — the registered metadata
	// governs) and Links carries the batch's candidate links.
	RecAppend RecordType = 4
	// RecReanalyze is one committed re-analysis of a source (§6.2): only
	// SourceName is set, and replay re-runs the analysis, which is
	// deterministic given the data the earlier records rebuilt.
	RecReanalyze RecordType = 5
)

// WALRecord is one logged mutation. Only the fields of the tagged type
// are populated.
type WALRecord struct {
	// Seq is the record's global sequence number. It is carried in the
	// frame header, not the gob payload: EncodeRecord writes it into the
	// header, DecodeFrame populates it from there, and StampSeq rewrites
	// it on an already-encoded frame.
	Seq uint64 `json:"-"`

	Type RecordType

	// RecAddSource
	Source *SourceSnapshot
	// Links are the candidate links of the commit (discovered + ontology
	// + duplicate); replaying them through the repository's dedup and
	// feedback filters reproduces exactly the stored set.
	Links []metadata.Link

	// RecDML, RecReanalyze
	SourceName string
	SQL        string

	// RecRemoveLink
	Link *metadata.Link
}

// EncodeRecord frames a record for appending: gob payload plus length,
// CRC and sequence header. Encoding off-lock and appending the
// pre-built frame under the commit lock keeps the locked section to one
// write+fsync; the final sequence is stamped into the header at append
// time (StampSeq), which the CRC deliberately does not cover.
func EncodeRecord(rec *WALRecord) ([]byte, error) {
	var body bytes.Buffer
	seq := rec.Seq
	rec.Seq = 0 // the header is authoritative; keep the payload canonical
	err := gob.NewEncoder(&body).Encode(rec)
	rec.Seq = seq
	if err != nil {
		return nil, fmt.Errorf("store: encoding WAL record: %w", err)
	}
	frame := make([]byte, walFrameHeader+body.Len())
	binary.LittleEndian.PutUint32(frame[0:4], uint32(body.Len()))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(body.Bytes()))
	binary.LittleEndian.PutUint64(frame[8:16], seq)
	copy(frame[walFrameHeader:], body.Bytes())
	return frame, nil
}

// StampSeq rewrites the sequence number of an already-encoded frame.
// The sequence lives outside the CRC, so stamping is a plain 8-byte
// store — no re-encoding.
func StampSeq(frame []byte, seq uint64) {
	binary.LittleEndian.PutUint64(frame[8:16], seq)
}

// ScanFrame validates one frame's header and CRC without decoding the
// gob payload, returning its sequence number and total length. It is
// the cheap half of DecodeFrame, used when frames are relayed verbatim
// (the replication server streams raw frames straight from disk).
// io.ErrUnexpectedEOF means the frame is torn; other errors mean
// corruption.
func ScanFrame(buf []byte) (seq uint64, n int, err error) {
	if len(buf) < walFrameHeader {
		return 0, 0, io.ErrUnexpectedEOF
	}
	plen := binary.LittleEndian.Uint32(buf[0:4])
	if plen > maxWALRecord {
		return 0, 0, fmt.Errorf("store: WAL record length %d exceeds limit", plen)
	}
	if len(buf) < walFrameHeader+int(plen) {
		return 0, 0, io.ErrUnexpectedEOF
	}
	payload := buf[walFrameHeader : walFrameHeader+int(plen)]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[4:8]) {
		return 0, 0, errors.New("store: WAL record CRC mismatch")
	}
	return binary.LittleEndian.Uint64(buf[8:16]), walFrameHeader + int(plen), nil
}

// DecodeFrame decodes one frame from buf, returning the record (with
// Seq populated from the header) and the number of bytes consumed.
// io.ErrUnexpectedEOF means the frame is torn (incomplete trailing
// bytes); other errors mean corruption. It never panics on arbitrary
// input — see FuzzWALDecode.
func DecodeFrame(buf []byte) (*WALRecord, int, error) {
	seq, n, err := ScanFrame(buf)
	if err != nil {
		return nil, 0, err
	}
	var rec WALRecord
	if err := gob.NewDecoder(bytes.NewReader(buf[walFrameHeader:n])).Decode(&rec); err != nil {
		return nil, 0, fmt.Errorf("store: decoding WAL record: %w", err)
	}
	rec.Seq = seq
	return &rec, n, nil
}

// WAL is one append-only log file. Not safe for concurrent use; callers
// serialize appends (package aladin appends under its write lock).
type WAL struct {
	f       *os.File
	path    string
	records int
	bytes   int64
	lastSeq uint64

	// failpoint, when non-nil, is consulted by Append at stage
	// "wal-append": a non-nil error makes Append write only the first
	// half of the frame and return the error — simulating a crash
	// mid-append for the recovery test suite.
	failpoint func(stage string) error
}

// CreateWAL creates a new, empty WAL file (failing if one exists) and
// durably records its existence in the directory.
func CreateWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.WriteString(walMagic); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	return &WAL{f: f, path: path}, nil
}

// OpenWAL opens an existing WAL for appending, first truncating it to
// its last intact record (discarding any torn tail a crash left).
// It returns the records found intact, already decoded in order.
func OpenWAL(path string) (*WAL, []*WALRecord, error) {
	recs, valid, err := ScanWAL(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, nil, err
	}
	w := &WAL{f: f, path: path, records: len(recs), bytes: valid - int64(len(walMagic))}
	if len(recs) > 0 {
		w.lastSeq = recs[len(recs)-1].Seq
	}
	return w, recs, nil
}

// ScanWAL reads a WAL file and returns its intact records plus the byte
// offset of the end of the last intact record — the truncation point.
// A file whose header is torn (shorter than the magic, or a strict
// prefix of it) counts as empty; a header that is no prefix of the
// magic is a format error.
func ScanWAL(path string) ([]*WALRecord, int64, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	if len(buf) < len(walMagic) {
		if string(buf) == walMagic[:len(buf)] {
			return nil, int64(len(walMagic)), nil // torn header: empty log
		}
		return nil, 0, fmt.Errorf("store: %s is not a WAL file", path)
	}
	if string(buf[:len(walMagic)]) != walMagic {
		return nil, 0, fmt.Errorf("store: %s is not a WAL file (or an unsupported WAL version)", path)
	}
	var recs []*WALRecord
	off := int64(len(walMagic))
	rest := buf[off:]
	for len(rest) > 0 {
		rec, n, err := DecodeFrame(rest)
		if err != nil {
			// Torn or corrupt: everything from here on was never
			// acknowledged (appends are fsynced in order), so replay
			// truncates at the last intact record.
			break
		}
		recs = append(recs, rec)
		off += int64(n)
		rest = rest[n:]
	}
	return recs, off, nil
}

// Append durably writes one pre-encoded frame (write + fsync), stamping
// seq into its header first. The record is acknowledged only when
// Append returns nil.
func (w *WAL) Append(frame []byte, seq uint64) error {
	if len(frame) < walFrameHeader {
		return errors.New("store: WAL frame shorter than its header")
	}
	StampSeq(frame, seq)
	if w.failpoint != nil {
		if err := w.failpoint("wal-append"); err != nil {
			// Simulated crash mid-append: half the frame reaches the
			// file, no ack. Recovery must truncate this torn record.
			w.f.Write(frame[:len(frame)/2])
			w.f.Sync()
			return err
		}
	}
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("store: appending WAL record: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: fsync WAL: %w", err)
	}
	w.records++
	w.bytes += int64(len(frame))
	w.lastSeq = seq
	return nil
}

// Records returns the number of records in the log (replayed + appended).
func (w *WAL) Records() int { return w.records }

// Bytes returns the record bytes in the log (excluding the header).
func (w *WAL) Bytes() int64 { return w.bytes }

// LastSeq returns the sequence of the last record appended or replayed
// (0 for an empty log).
func (w *WAL) LastSeq() uint64 { return w.lastSeq }

// Close flushes and closes the log file.
func (w *WAL) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}
