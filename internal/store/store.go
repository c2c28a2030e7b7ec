// Package store is the webbase's durable state tier: a dependency-free,
// crash-safe persistence layer under the in-memory stacks. It holds the
// expensive state the system accumulates — warmed pages, repaired
// navigation maps, breaker and health verdicts — across restarts, so a
// redeployed replica does not re-fetch the Web, re-probe known-dead hosts
// or re-learn site redesigns from scratch.
//
// The store is strictly a cache, never a source of truth: every layer
// above is a deterministic function of fetched pages, so a missing,
// truncated, bit-flipped, version-skewed or concurrently-replaced state
// file degrades to cold state (the system re-derives it) and may never
// fail a query or panic. Reads verify a content fingerprint and typed
// errors (ErrCorrupt, ErrNotExist) let every tier fall back with one
// errors.Is check; writes are atomic (temp file + fsync + rename) so a
// crash mid-write leaves the previous record intact. Corrupt files are
// counted per tier in store_corrupt_total{tier=...}.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"webbase/internal/trace"
)

// fileExt is the state-file suffix; foreign files in a tier directory are
// ignored rather than decoded.
const fileExt = ".wbs"

// Options tunes Open.
type Options struct {
	// Metrics, when non-nil, receives store_corrupt_total{tier=...} on
	// every integrity failure, store_evicted_total{tier=...} on every
	// eviction and store_write_failed_total{tier=...} on write errors.
	// Open registers the three totals at 0.
	Metrics *trace.Registry
	// FS is the filesystem seam; nil means the real filesystem with
	// atomic writes. Tests inject FaultFS.
	FS FS
}

// Store is one state directory: a set of named tiers, each a directory of
// fingerprinted record files keyed by hashed logical keys. Store is safe
// for concurrent use.
type Store struct {
	dir     string
	fs      FS
	metrics *trace.Registry
}

// Open roots a store at dir, creating it if needed. Open fails only when
// the directory cannot be created — callers treat that as "no store" and
// run cold, because a broken state dir may never take queries down.
func Open(dir string, opts Options) (*Store, error) {
	fs := opts.FS
	if fs == nil {
		fs = osFS{}
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("store: opening state dir %s: %w", dir, err)
	}
	if m := opts.Metrics; m != nil {
		for _, name := range []string{"store_corrupt_total", "store_evicted_total", "store_write_failed_total"} {
			m.Counter(name)
		}
	}
	return &Store{dir: dir, fs: fs, metrics: opts.Metrics}, nil
}

// Dir returns the state directory the store is rooted at.
func (s *Store) Dir() string { return s.dir }

// path maps (tier, key) to the record file: keys are hashed so any string
// — full request keys with URLs and form encodings included — is a safe
// file name, and the key itself rides inside the record for verification.
func (s *Store) path(tier, key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, tier, hex.EncodeToString(sum[:16])+fileExt)
}

// Put atomically writes one record. Errors are reported (and counted) but
// callers treat them as lost cache fills, never failures.
func (s *Store) Put(tier, key string, gen uint64, payload []byte) error {
	if err := s.fs.MkdirAll(filepath.Join(s.dir, tier)); err != nil {
		s.countWriteFailed(tier)
		return fmt.Errorf("store: put %s/%s: %w", tier, key, err)
	}
	if err := s.fs.WriteFile(s.path(tier, key), encodeRecord(key, gen, payload)); err != nil {
		s.countWriteFailed(tier)
		return fmt.Errorf("store: put %s/%s: %w", tier, key, err)
	}
	return nil
}

// Get reads and verifies one record, returning its payload and the
// generation it was written under. A clean miss is ErrNotExist; any
// integrity failure — including a record whose embedded key does not
// match (a file renamed or hash-collided onto the wrong slot) — is
// ErrCorrupt, already counted against the tier.
func (s *Store) Get(tier, key string) ([]byte, uint64, error) {
	data, err := s.fs.ReadFile(s.path(tier, key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, fmt.Errorf("%w: %s/%s", ErrNotExist, tier, key)
		}
		// An unreadable file is indistinguishable from a corrupt one for
		// fallback purposes.
		s.CountCorrupt(tier)
		return nil, 0, fmt.Errorf("%w: %s/%s: %v", ErrCorrupt, tier, key, err)
	}
	rec, err := DecodeRecord(data)
	if err != nil {
		s.CountCorrupt(tier)
		return nil, 0, fmt.Errorf("%s/%s: %w", tier, key, err)
	}
	if rec.Key != key {
		s.CountCorrupt(tier)
		return nil, 0, fmt.Errorf("%w: %s/%s: record carries key %q", ErrCorrupt, tier, key, rec.Key)
	}
	return rec.Payload, rec.Generation, nil
}

// Delete removes one record (no error when absent).
func (s *Store) Delete(tier, key string) error {
	return s.fs.Remove(s.path(tier, key))
}

// DeleteTier removes every record of a tier — the bulk invalidation a
// tier uses when its generation bookkeeping itself is lost.
func (s *Store) DeleteTier(tier string) error {
	dir := filepath.Join(s.dir, tier)
	names, err := s.fs.ReadDir(dir)
	if err != nil {
		return err
	}
	var firstErr error
	for _, name := range names {
		if filepath.Ext(name) != fileExt {
			continue
		}
		if err := s.fs.Remove(filepath.Join(dir, name)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Scan visits every valid record of a tier in sorted file order, so boot
// restores are deterministic. Corrupt files are counted and skipped —
// one bad record never hides the rest of the tier.
func (s *Store) Scan(tier string, fn func(key string, gen uint64, payload []byte)) error {
	dir := filepath.Join(s.dir, tier)
	names, err := s.fs.ReadDir(dir)
	if err != nil {
		s.CountCorrupt(tier)
		return fmt.Errorf("%w: scanning %s: %v", ErrCorrupt, tier, err)
	}
	for _, name := range names {
		if filepath.Ext(name) != fileExt {
			continue
		}
		data, err := s.fs.ReadFile(filepath.Join(dir, name))
		if err != nil {
			if os.IsNotExist(err) {
				continue // concurrently replaced or removed; the new record will be seen next boot
			}
			s.CountCorrupt(tier)
			continue
		}
		rec, err := DecodeRecord(data)
		if err != nil {
			s.CountCorrupt(tier)
			continue
		}
		fn(rec.Key, rec.Generation, rec.Payload)
	}
	return nil
}

// CountCorrupt counts one integrity failure against a tier. The store
// counts its own file-level failures; tiers call it for payload-level
// ones (a JSON snapshot or navigation map that fails its own validation)
// so every corruption mode lands in the same metric.
func (s *Store) CountCorrupt(tier string) {
	if s == nil || s.metrics == nil {
		return
	}
	s.metrics.Counter("store_corrupt_total").Add(1)
	s.metrics.Counter(`store_corrupt_total{tier="` + tier + `"}`).Add(1)
}

// CountEvicted counts one eviction against a tier
// (store_evicted_total{tier=...}): a page evicted past the size bound,
// a superseded map version, or a stale snapshot GCed at boot or on
// transition.
func (s *Store) CountEvicted(tier string) {
	if s == nil || s.metrics == nil {
		return
	}
	s.metrics.Counter("store_evicted_total").Add(1)
	s.metrics.Counter(`store_evicted_total{tier="` + tier + `"}`).Add(1)
}

func (s *Store) countWriteFailed(tier string) {
	if s.metrics == nil {
		return
	}
	s.metrics.Counter("store_write_failed_total").Add(1)
	s.metrics.Counter(`store_write_failed_total{tier="` + tier + `"}`).Add(1)
}

// IsCorrupt reports whether err is an integrity failure (errors.Is
// ErrCorrupt).
func IsCorrupt(err error) bool { return errors.Is(err, ErrCorrupt) }

// IsNotExist reports a clean miss (errors.Is ErrNotExist).
func IsNotExist(err error) bool { return errors.Is(err, ErrNotExist) }
