package server

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// FileStoreConfig sizes the durable store. The in-memory index keeps
// MemStore's TTL/count/byte-cap semantics; Dir roots the on-disk field
// files.
type FileStoreConfig struct {
	MemStoreConfig
	// Dir is the data directory. Field files live under Dir/fields/<id>/.
	Dir string
	// Logf receives disk-cleanup failures (nil = silent). Cleanup is best
	// effort: a leaked field directory costs disk, never correctness.
	Logf func(format string, args ...any)
}

// FileStore is the durable ResultStore behind -data-dir: the index (ids,
// recency, TTL, caps) is the in-memory MemStore, and each surviving
// pair's SMF1 bytes are additionally persisted as one file under
// Dir/fields/<id>/<pair>.smf, written tmp + fsync + rename so a crash
// never leaves a partial field visible. When an entry leaves the index —
// TTL expiry, cap eviction, or Delete — its field directory is removed,
// so disk usage tracks the same retention policy as memory.
//
// The disk side is durability first: the field files exist so recovery
// can rebuild jobs after a restart (see Server.Recover and
// docs/ROBUSTNESS.md). They are also memory relief: once a pair's bytes
// are durable, the job planes drop their in-memory copy and read it back
// through LoadFields when the result is streamed, so a retained durable
// job holds only its index entry in memory.
type FileStore struct {
	mem  *MemStore
	dir  string // <Dir>/fields
	logf func(format string, args ...any)
}

// NewFileStore opens (creating if needed) the durable store rooted at
// cfg.Dir.
func NewFileStore(cfg FileStoreConfig) (*FileStore, error) {
	if cfg.Dir == "" {
		return nil, errors.New("server: FileStore needs a directory")
	}
	s := &FileStore{dir: filepath.Join(cfg.Dir, "fields"), logf: cfg.Logf}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: filestore: %w", err)
	}
	mcfg := cfg.MemStoreConfig
	userRemove := mcfg.OnRemove
	mcfg.OnRemove = func(id string) {
		s.removeFields(id)
		if userRemove != nil {
			userRemove(id)
		}
	}
	s.mem = NewMemStore(mcfg)
	return s, nil
}

// Put stores v under id (index only; call PutField for durable bytes).
func (s *FileStore) Put(id string, v any) { s.mem.Put(id, v) }

// Get returns the live value under id, refreshing its recency.
func (s *FileStore) Get(id string) (any, bool) { return s.mem.Get(id) }

// Delete removes id from the index and its field files from disk.
func (s *FileStore) Delete(id string) { s.mem.Delete(id) }

// Len reports the live entry count.
func (s *FileStore) Len() int { return s.mem.Len() }

// Range iterates live entries in id order (see MemStore.Range).
func (s *FileStore) Range(fn func(id string, v any) bool) { s.mem.Range(fn) }

// Close stops the TTL sweeper. Field files stay on disk for recovery.
func (s *FileStore) Close() { s.mem.Close() }

// fieldDir is the per-job directory of pair field files.
func (s *FileStore) fieldDir(id string) string {
	return filepath.Join(s.dir, id)
}

// fieldPath names pair's SMF1 file within id's directory.
func (s *FileStore) fieldPath(id string, pair int) string {
	return filepath.Join(s.dir, id, fmt.Sprintf("%08d.smf", pair))
}

// PutField durably writes one pair's SMF1 bytes: tmp file, fsync, rename,
// directory fsync. Once PutField returns nil the bytes survive a crash —
// the ordering contract the journal's pair checkpoints depend on (the
// checkpoint record is only appended after its field is durable, so
// replay never references a missing field).
//
// A concurrent Delete of the same id (DELETE /v1/jobs/{id} racing a
// running job's checkpoints) can remove the directory mid-write, or
// between a racing PutField's mkdir and this one's; one retry recreates
// it, and losing the race again surfaces as an fs.ErrNotExist the caller may treat as benign — the job is being
// deleted, so skipping its checkpoint is correct. If the delete lands
// after a successful retry the directory leaks until SweepOrphans —
// disk, never correctness, since the deleted job leaves the journal too.
func (s *FileStore) PutField(id string, pair int, smf []byte) error {
	err := s.putFieldOnce(id, pair, smf)
	if errors.Is(err, fs.ErrNotExist) {
		err = s.putFieldOnce(id, pair, smf)
	}
	return err
}

func (s *FileStore) putFieldOnce(id string, pair int, smf []byte) error {
	dir := s.fieldDir(id)
	if err := os.MkdirAll(dir, 0o755); errors.Is(err, fs.ErrExist) {
		// A concurrent PutField made dir and a Delete removed it again
		// before MkdirAll could confirm it: the same lost race as below.
		return fmt.Errorf("server: filestore: %v: %w", err, fs.ErrNotExist)
	} else if err != nil {
		return fmt.Errorf("server: filestore: %w", err)
	}
	path := s.fieldPath(id, pair)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("server: filestore: %w", err)
	}
	if _, err := f.Write(smf); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp) //smavet:allow errdiscard -- tmp cleanup on the error path
		return fmt.Errorf("server: filestore: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp) //smavet:allow errdiscard -- tmp cleanup on the error path
		return fmt.Errorf("server: filestore: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp) //smavet:allow errdiscard -- tmp cleanup on the error path
		return fmt.Errorf("server: filestore: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync() //smavet:allow errdiscard -- directory fsync is advisory on some filesystems
		d.Close()
	}
	return nil
}

// Field reads one pair's persisted SMF1 bytes (ok=false when absent).
func (s *FileStore) Field(id string, pair int) ([]byte, bool, error) {
	b, err := os.ReadFile(s.fieldPath(id, pair))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("server: filestore: %w", err)
	}
	return b, true, nil
}

// LoadFields reads the persisted bytes of every pair marked in onDisk
// into fields. A missing file is an error: the job held the pair as
// durable, so it left the store (or the disk lost it) while the caller
// read it.
func (s *FileStore) LoadFields(id string, fields [][]byte, onDisk []bool) error {
	for p, d := range onDisk {
		if !d {
			continue
		}
		b, ok, err := s.Field(id, p)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("server: filestore: field %s/%d is gone", id, p)
		}
		fields[p] = b
	}
	return nil
}

// removeFields drops id's field directory (best effort, logged).
func (s *FileStore) removeFields(id string) {
	if err := os.RemoveAll(s.fieldDir(id)); err != nil {
		s.logf("filestore: removing fields of %s: %v", id, err)
	}
}

// SweepOrphans removes field directories whose id the journal replay did
// not restore — jobs that expired or were deleted while down, or whose
// checkpoints were lost to tail damage. Returns how many were removed.
func (s *FileStore) SweepOrphans(live func(id string) bool) (int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("server: filestore: %w", err)
	}
	removed := 0
	for _, e := range entries {
		if !e.IsDir() || live(e.Name()) {
			continue
		}
		if err := os.RemoveAll(filepath.Join(s.dir, e.Name())); err != nil {
			return removed, fmt.Errorf("server: filestore: %w", err)
		}
		removed++
	}
	return removed, nil
}
