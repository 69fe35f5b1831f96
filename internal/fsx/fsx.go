// Package fsx holds the crash-safe file-writing discipline every
// snapshot in the system goes through: write to a temp file in the
// destination directory, fsync the file, atomically rename it over the
// destination, and fsync the directory so the rename itself is durable.
// A crash at any point leaves either the old file or the new one —
// never a truncated hybrid a replica would later mmap.
package fsx

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic writes the bytes fill produces to path with full
// crash-safety: temp file in path's directory, fsync, rename, directory
// fsync. On any error the temp file is removed and the destination is
// untouched.
func WriteFileAtomic(path string, fill func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := fill(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-completed rename survives a
// crash. Some platforms (and some filesystems) reject fsync on
// directories; those errors are swallowed — the rename is still atomic,
// only its durability window widens to the next metadata flush.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}

// RenameDurable renames oldpath to newpath and fsyncs the directory of
// newpath, so the rename survives a crash once it returns.
func RenameDurable(oldpath, newpath string) error {
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	return syncDir(filepath.Dir(newpath))
}

// RemoveDurable removes path, if present, and fsyncs its directory, so
// the removal survives a crash once it returns.
func RemoveDurable(path string) error {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return syncDir(filepath.Dir(path))
}
