// Package snapshot implements versioned, manifest-led snapshots of the
// engine's relational state: the loaded graph (TEdges) plus every built
// index (TOutSegs, TLandmark, TLabelOut/TLabelIn) and the scalar
// metadata needed to serve from them without a rebuild. A snapshot is a
// set of fixed-size row chunks plus one manifest.json, written through the
// pluggable ChunkStore interface — a disk backend ships first; the
// interface is shaped (flat names, whole-object Put/Get, prefix List) so
// an S3-compatible backend is a drop-in.
//
// Commit protocol: chunks are written first, the manifest last, and a
// snapshot exists if and only if its manifest does. Readers (Latest) and
// the GC treat a version directory without a manifest as a failed or
// in-flight attempt — invisible to hydration, reclaimable once a newer
// complete snapshot exists. See docs/ARCHITECTURE.md §Durability for the
// full safety argument.
package snapshot

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ChunkStore is the pluggable snapshot backend: a flat namespace of
// immutable objects with "/"-separated names. Put must be durable on
// return (the commit protocol relies on it); List returns every object
// name with the given prefix, in any order.
type ChunkStore interface {
	Put(name string, data []byte) error
	Get(name string) ([]byte, error)
	List(prefix string) ([]string, error)
	Delete(name string) error
}

// ErrNotExist is returned by Get for a missing object.
var ErrNotExist = errors.New("snapshot: object does not exist")

// DiskStore is the filesystem ChunkStore: objects are files under a root
// directory, Put writes a temp file, fsyncs it, renames into place and
// fsyncs the directory — an object is either fully present or absent,
// never half-written.
type DiskStore struct {
	root string
}

// NewDiskStore opens (creating if needed) a disk-backed chunk store.
func NewDiskStore(root string) (*DiskStore, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("snapshot: mkdir %s: %w", root, err)
	}
	return &DiskStore{root: root}, nil
}

// path maps an object name to its file path, refusing escapes.
func (s *DiskStore) path(name string) (string, error) {
	if name == "" || strings.Contains(name, "..") || strings.HasPrefix(name, "/") {
		return "", fmt.Errorf("snapshot: bad object name %q", name)
	}
	return filepath.Join(s.root, filepath.FromSlash(name)), nil
}

// Put stores data under name, durably.
func (s *DiskStore) Put(name string, data []byte) error {
	p, err := s.path(name)
	if err != nil {
		return err
	}
	dir := filepath.Dir(p)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("snapshot: mkdir %s: %w", dir, err)
	}
	tmp, err := os.CreateTemp(dir, ".put-*")
	if err != nil {
		return fmt.Errorf("snapshot: temp: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { tmp.Close(); os.Remove(tmpName) }
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return fmt.Errorf("snapshot: write %s: %w", name, err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("snapshot: sync %s: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("snapshot: close %s: %w", name, err)
	}
	if err := os.Rename(tmpName, p); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("snapshot: rename %s: %w", name, err)
	}
	return syncDir(dir)
}

// Get returns the object's bytes, or ErrNotExist.
func (s *DiskStore) Get(name string) ([]byte, error) {
	p, err := s.path(name)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(p)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
		}
		return nil, fmt.Errorf("snapshot: read %s: %w", name, err)
	}
	return data, nil
}

// List returns every object name under the root with the given prefix.
func (s *DiskStore) List(prefix string) ([]string, error) {
	var names []string
	err := filepath.WalkDir(s.root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || strings.HasPrefix(d.Name(), ".put-") {
			return nil
		}
		rel, err := filepath.Rel(s.root, p)
		if err != nil {
			return err
		}
		name := filepath.ToSlash(rel)
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("snapshot: list: %w", err)
	}
	sort.Strings(names)
	return names, nil
}

// Delete removes the object (missing is not an error) and prunes its
// parent directory if now empty.
func (s *DiskStore) Delete(name string) error {
	p, err := s.path(name)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("snapshot: delete %s: %w", name, err)
	}
	// Best-effort prune: an empty version directory after the last chunk
	// goes is just clutter.
	if dir := filepath.Dir(p); dir != s.root {
		os.Remove(dir)
	}
	return nil
}

// syncDir fsyncs a directory so a completed rename is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("snapshot: open dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("snapshot: sync dir %s: %w", dir, err)
	}
	return nil
}
