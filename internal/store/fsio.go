package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// This file holds the durable file-IO primitives shared by the
// checkpoint segment/manifest writers, downloaded replica segments, and
// the WAL. "Durable" means the usual three-step dance: fsync the file
// contents, atomically rename into place, then fsync the parent
// directory so the rename itself survives power loss — a bare
// temp-file + rename is atomic against concurrent readers but NOT
// against a crash, because neither the data blocks nor the directory
// entry are guaranteed to have reached the disk.

// atomicWriteFile durably writes a file: the payload is produced by
// write into a temp file in the same directory, fsynced, renamed over
// path, and the directory entry fsynced.
func atomicWriteFile(path string, write func(w io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: fsync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so renames and file creations within it
// are durable. Some filesystems return EINVAL for fsync on directories;
// that is reported as-is — the durability layer targets filesystems
// with POSIX crash semantics.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: fsync dir %s: %w", dir, err)
	}
	return nil
}
