// Package store implements the persistent content-addressed artifact
// store behind the corpus-scale batch engine. Results are keyed by
// (config hash × input hash): the config hash covers every pipeline knob
// and model weight that can change a translation's output (computed by
// core.Pipeline.ConfigHash), and the input hash is the SHA-256 of the
// decoded picture's dimensions and raw pixels — the same scheme as the
// tdserve LRU, so two uploads of one diagram through different PNG
// encoders share an artifact.
//
// On-disk layout under the store root:
//
//	tmp/                          staging area for atomic writes
//	alias/<xx>/<raw>.key          SHA-256(encoded bytes) -> input-hash hex
//	obj/<cfg>/<xx>/<input>.json   the artifact body
//
// where <xx> is the first two hex digits of the hash that follows — a
// fan-out shard so a 15k-item corpus does not put every file in one
// directory. Every write lands in tmp/ first and is renamed into place,
// so a reader never observes a partial artifact and an interrupted corpus
// run leaves only complete entries: the re-run resumes by translating
// exactly the missing keys. Stale tmp files from a crash are cleared the
// next time the store is opened.
//
// The alias index is a decode-skipping shortcut for file-backed sources
// and tdserve uploads alike: it maps the hash of a file's or upload's
// encoded bytes to the canonical pixel-level input hash, so a warm re-run
// over an unchanged directory, or a repeat upload of known bytes,
// resolves each picture to its artifact without PNG-decoding or
// pixel-hashing it. Aliases are config-independent (bytes -> pixels
// involves no model), so all configurations share one index.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"tdmagic/internal/imgproc"
)

// Hash is a SHA-256 content address.
type Hash [sha256.Size]byte

// Hex returns the lowercase hex form of the hash.
func (h Hash) Hex() string { return hex.EncodeToString(h[:]) }

// IsZero reports whether the hash is the (invalid) zero value.
func (h Hash) IsZero() bool { return h == Hash{} }

// ParseHex decodes a 64-digit hex hash.
func ParseHex(s string) (Hash, error) {
	var h Hash
	b, err := hex.DecodeString(strings.TrimSpace(s))
	if err != nil || len(b) != sha256.Size {
		return h, fmt.Errorf("store: invalid hash %q", s)
	}
	copy(h[:], b)
	return h, nil
}

// HashBytes hashes a raw byte string (e.g. a PNG file's encoded bytes,
// for the alias index).
func HashBytes(b []byte) Hash { return sha256.Sum256(b) }

// HashImage computes the canonical input hash of a decoded picture:
// SHA-256 over (width, height, raw pixels), the same key the tdserve LRU
// uses, so the persistent store and the in-memory cache address content
// identically.
func HashImage(img *imgproc.Gray) Hash {
	h := sha256.New()
	var dims [16]byte
	binary.LittleEndian.PutUint64(dims[0:8], uint64(img.W))
	binary.LittleEndian.PutUint64(dims[8:16], uint64(img.H))
	h.Write(dims[:])
	h.Write(img.Pix)
	var k Hash
	h.Sum(k[:0])
	return k
}

// Store is a content-addressed artifact store rooted at one directory.
// All methods are safe for concurrent use from any number of goroutines
// or processes sharing the root: writes are atomic renames, and a
// concurrent Put of the same key simply replaces the file with identical
// content.
type Store struct {
	root string
	m    *Metrics // optional, attached by SetMetrics; nil counts nothing
}

// Open prepares (creating if necessary) a store rooted at dir and clears
// any staging files left behind by a crashed writer.
func Open(dir string) (*Store, error) {
	for _, sub := range []string{"tmp", "alias", "obj"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	// A crash between create and rename strands a tmp file; none are live
	// across opens, so clear them all rather than leaking disk.
	if stale, err := os.ReadDir(filepath.Join(dir, "tmp")); err == nil {
		for _, e := range stale {
			_ = os.Remove(filepath.Join(dir, "tmp", e.Name()))
		}
	}
	return &Store{root: dir}, nil
}

// objPath returns the artifact path for one (config, input) key.
func (s *Store) objPath(cfg, input Hash) string {
	ih := input.Hex()
	return filepath.Join(s.root, "obj", cfg.Hex(), ih[:2], ih+".json")
}

// aliasPath returns the alias-index path for one raw-bytes hash.
func (s *Store) aliasPath(raw Hash) string {
	rh := raw.Hex()
	return filepath.Join(s.root, "alias", rh[:2], rh+".key")
}

// FaultHook, when non-nil, is consulted before every atomic write
// commits, with the operation kind ("put", "alias") and the destination
// path; a non-nil return aborts the write with that error. It is a
// build-tag-free fault-injection seam for the robustness tests (full
// disk, read-only store) and must only be set while no writer is running.
var FaultHook func(op, path string) error

// ProbeWritable verifies the store can still take writes by staging and
// removing a probe file in the tmp/ area — the readiness signal a load
// balancer should see before routing corpus traffic at a replica.
func (s *Store) ProbeWritable() error {
	f, err := os.CreateTemp(filepath.Join(s.root, "tmp"), "probe-*")
	if err != nil {
		return fmt.Errorf("store: not writable: %w", err)
	}
	name := f.Name()
	_, werr := f.Write([]byte("probe"))
	cerr := f.Close()
	os.Remove(name)
	if werr != nil {
		return fmt.Errorf("store: not writable: %w", werr)
	}
	if cerr != nil {
		return fmt.Errorf("store: not writable: %w", cerr)
	}
	return nil
}

// Get returns the artifact stored under (cfg, input). Any read failure —
// missing, unreadable, truncated by an external actor — reports a miss;
// the caller recomputes and the next Put heals the entry.
func (s *Store) Get(cfg, input Hash) ([]byte, bool) {
	data, err := os.ReadFile(s.objPath(cfg, input))
	if err != nil {
		s.m.miss()
		return nil, false
	}
	s.m.hit()
	return data, true
}

// Put stores data under (cfg, input) atomically: the bytes are staged in
// tmp/ and renamed into place, so a concurrent or crashed reader never
// sees a partial artifact.
func (s *Store) Put(cfg, input Hash, data []byte) error {
	if err := s.writeAtomic("put", s.objPath(cfg, input), data); err != nil {
		return err
	}
	s.m.write()
	return nil
}

// Remove deletes the artifact under (cfg, input); missing entries are not
// an error. The crash-resume tests use it to truncate a store mid-run.
func (s *Store) Remove(cfg, input Hash) error {
	err := os.Remove(s.objPath(cfg, input))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// GetAlias resolves the hash of a file's encoded bytes to the canonical
// input hash recorded by a previous run, or reports a miss.
func (s *Store) GetAlias(raw Hash) (Hash, bool) {
	data, err := os.ReadFile(s.aliasPath(raw))
	if err != nil {
		return Hash{}, false
	}
	h, err := ParseHex(string(data))
	if err != nil {
		return Hash{}, false
	}
	return h, true
}

// PutAlias records raw -> input in the alias index, atomically.
func (s *Store) PutAlias(raw, input Hash) error {
	return s.writeAtomic("alias", s.aliasPath(raw), []byte(input.Hex()+"\n"))
}

// Count returns the number of artifacts stored under one config hash.
func (s *Store) Count(cfg Hash) (int, error) {
	n := 0
	dir := filepath.Join(s.root, "obj", cfg.Hex())
	shards, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	for _, sh := range shards {
		entries, err := os.ReadDir(filepath.Join(dir, sh.Name()))
		if err != nil {
			return 0, err
		}
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".json") {
				n++
			}
		}
	}
	return n, nil
}

// writeAtomic stages data in tmp/ and renames it to path, creating the
// destination shard directory on demand.
func (s *Store) writeAtomic(op, path string, data []byte) error {
	if FaultHook != nil {
		if err := FaultHook(op, path); err != nil {
			return fmt.Errorf("store: %s %s: %w", op, path, err)
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	f, err := os.CreateTemp(filepath.Join(s.root, "tmp"), "put-*")
	if err != nil {
		return fmt.Errorf("store: stage: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: stage write: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: stage close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: commit: %w", err)
	}
	return nil
}
