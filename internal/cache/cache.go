// Package cache is a content-addressed on-disk store for experiment
// results. Keys are SHA-256 hashes of a canonical JSON encoding of the
// inputs (plus a schema version), so a record is found again only when every
// input that could change the result is unchanged. Values are JSON files
// under <dir>/<kk>/<key>.json, written atomically, which makes the store
// safe to share between concurrent sweep workers and robust to interrupted
// runs: a killed sweep leaves only complete records behind, and the next run
// resumes by hitting them.
package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Key derives the content address for the given inputs: a SHA-256 over the
// version string and the canonical JSON encoding of v. Any change to either
// produces a different key, which is how stale results are invalidated.
func Key(version string, v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("cache: key inputs: %w", err)
	}
	return KeyOf(version, data), nil
}

// KeyOf is Key over inputs already in their canonical encoding, the bytes
// json.Marshal returns for them. A caller that keeps those bytes can later
// prove a record is the one they address by comparing bytes, not hashes.
func KeyOf(version string, canon []byte) string {
	h := sha256.New()
	h.Write([]byte(version))
	h.Write([]byte{0})
	h.Write(canon)
	return hex.EncodeToString(h.Sum(nil))
}

// Store is an on-disk result store rooted at a directory.
type Store struct {
	dir string
	// OnEvict, when set, observes every record eviction — Get detecting a
	// corrupt or truncated entry, or a caller invoking Evict (e.g. the
	// sweep detecting a record whose content no longer matches its key) —
	// with the key and the reason. Evictions are recoveries, not errors:
	// the caller recomputes the record instead of failing, and the hook is
	// how that recovery is logged and counted. Set it before sharing the
	// store between goroutines; the hook itself must be safe for
	// concurrent calls.
	OnEvict func(key string, reason error)
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("cache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Path returns the file that key is stored at. Records are fanned out into
// 256 subdirectories by the first key byte to keep directories small.
func (s *Store) Path(key string) string {
	if len(key) < 2 {
		return filepath.Join(s.dir, key+".json")
	}
	return filepath.Join(s.dir, key[:2], key+".json")
}

// Get loads the record for key into out. It reports false for a missing
// entry; a corrupt entry (unreadable JSON) is deleted and reported as a miss
// so the caller recomputes it, rather than poisoning every later run.
func (s *Store) Get(key string, out any) (bool, error) {
	path := s.Path(key)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("cache: read %s: %w", path, err)
	}
	if err := json.Unmarshal(data, out); err != nil {
		s.Evict(key, fmt.Errorf("corrupt record (%d bytes): %w", len(data), err))
		return false, nil
	}
	return true, nil
}

// Evict removes the record stored under key and reports it to OnEvict with
// the given reason. Missing records evict silently (the torn write may have
// left nothing behind); eviction never fails the caller — the worst case is
// a recompute.
func (s *Store) Evict(key string, reason error) {
	os.Remove(s.Path(key))
	if s.OnEvict != nil {
		s.OnEvict(key, reason)
	}
}

// Put stores v under key as compact JSON (`jq . <file>` reads one),
// atomically: the record is written to a temporary file in the same
// directory and renamed into place, so concurrent readers never observe a
// partial write.
func (s *Store) Put(key string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("cache: encode %s: %w", key, err)
	}
	path := s.Path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+key+".tmp-*")
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: write %s: %v/%v", path, werr, cerr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}
	return nil
}
