package server

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func newTestFileStore(t *testing.T, cfg MemStoreConfig) (*FileStore, string) {
	t.Helper()
	dir := t.TempDir()
	st, err := NewFileStore(FileStoreConfig{MemStoreConfig: cfg, Dir: dir})
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	t.Cleanup(st.Close)
	return st, dir
}

// TestFileStoreFieldRoundTrip: PutField persists bytes that Field and
// LoadFields read back, with unwritten pairs reported absent.
func TestFileStoreFieldRoundTrip(t *testing.T) {
	st, _ := newTestFileStore(t, MemStoreConfig{TTL: time.Hour})
	want := [][]byte{[]byte("pair-0"), nil, []byte("pair-2")}
	for p, b := range want {
		if b == nil {
			continue
		}
		if err := st.PutField("job-a", p, b); err != nil {
			t.Fatalf("PutField(%d): %v", p, err)
		}
	}
	got := make([][]byte, len(want))
	if err := st.LoadFields("job-a", got, []bool{true, false, true}); err != nil {
		t.Fatalf("LoadFields: %v", err)
	}
	for p := range want {
		if !bytes.Equal(got[p], want[p]) {
			t.Fatalf("pair %d = %q, want %q", p, got[p], want[p])
		}
	}
	if _, ok, err := st.Field("job-a", 1); err != nil || ok {
		t.Fatalf("unwritten pair reported present (ok=%v err=%v)", ok, err)
	}
	if err := st.LoadFields("job-a", got, []bool{false, true, false}); err == nil {
		t.Fatal("LoadFields read a pair that was never written")
	}
}

// TestFileStorePutFieldOverwrite: a re-checkpointed pair (idempotent
// resume re-tracking the boundary pair) atomically replaces the old file.
func TestFileStorePutFieldOverwrite(t *testing.T) {
	st, _ := newTestFileStore(t, MemStoreConfig{TTL: time.Hour})
	if err := st.PutField("j", 0, []byte("first")); err != nil {
		t.Fatalf("PutField: %v", err)
	}
	if err := st.PutField("j", 0, []byte("second")); err != nil {
		t.Fatalf("PutField overwrite: %v", err)
	}
	b, ok, err := st.Field("j", 0)
	if err != nil || !ok || string(b) != "second" {
		t.Fatalf("Field = %q ok=%v err=%v, want the overwrite", b, ok, err)
	}
	// No tmp residue after successful writes.
	matches, _ := filepath.Glob(filepath.Join(st.fieldDir("j"), "*.tmp"))
	if len(matches) != 0 {
		t.Fatalf("tmp files left behind: %v", matches)
	}
}

// TestFileStoreDeleteRemovesFields: Delete drops the index entry AND the
// on-disk field directory, keeping disk usage under the retention policy.
func TestFileStoreDeleteRemovesFields(t *testing.T) {
	st, _ := newTestFileStore(t, MemStoreConfig{TTL: time.Hour})
	st.Put("j", 1)
	if err := st.PutField("j", 0, []byte("x")); err != nil {
		t.Fatalf("PutField: %v", err)
	}
	st.Delete("j")
	if _, ok := st.Get("j"); ok {
		t.Fatal("index entry survived Delete")
	}
	if _, err := os.Stat(st.fieldDir("j")); !os.IsNotExist(err) {
		t.Fatalf("field dir survived Delete: %v", err)
	}
}

// TestFileStoreCountCapRemovesFields: cap evictions follow MemStore's LRU
// semantics and also unlink the evicted ids' field directories.
func TestFileStoreCountCapRemovesFields(t *testing.T) {
	var evicted int
	st, _ := newTestFileStore(t, MemStoreConfig{
		TTL:        time.Hour,
		MaxEntries: 4,
		OnEvict:    func(n int) { evicted += n },
	})
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("id-%d", i)
		st.Put(id, i)
		if err := st.PutField(id, 0, []byte(id)); err != nil {
			t.Fatalf("PutField: %v", err)
		}
	}
	if n := st.Len(); n != 4 {
		t.Fatalf("store holds %d entries, cap is 4", n)
	}
	if evicted != 6 {
		t.Fatalf("eviction callback saw %d drops, want 6", evicted)
	}
	for i := 0; i < 6; i++ {
		if _, err := os.Stat(st.fieldDir(fmt.Sprintf("id-%d", i))); !os.IsNotExist(err) {
			t.Fatalf("evicted id-%d still has field files", i)
		}
	}
	for i := 6; i < 10; i++ {
		if _, ok, err := st.Field(fmt.Sprintf("id-%d", i), 0); err != nil || !ok {
			t.Fatalf("surviving id-%d lost its field files (ok=%v err=%v)", i, ok, err)
		}
	}
}

// TestFileStoreBytesCap: byte-cap parity with MemStore.
func TestFileStoreBytesCap(t *testing.T) {
	st, _ := newTestFileStore(t, MemStoreConfig{TTL: time.Hour, MaxEntries: 1000, MaxBytes: 10 << 10})
	for i := 0; i < 8; i++ {
		st.Put(fmt.Sprintf("fat-%d", i), fatEntry{size: 4 << 10})
	}
	if b := ledgerBytes(st.mem); b > 10<<10 {
		t.Fatalf("store holds %d bytes, cap is %d", b, 10<<10)
	}
	if _, ok := st.Get("fat-7"); !ok {
		t.Fatal("most recent entry evicted under the byte cap")
	}
}

// TestFileStoreTTLExpiryRemovesFields: the sweep unlinks expired entries'
// field directories.
func TestFileStoreTTLExpiryRemovesFields(t *testing.T) {
	st, _ := newTestFileStore(t, MemStoreConfig{TTL: 10 * time.Millisecond})
	st.Put("j", 1)
	if err := st.PutField("j", 0, []byte("x")); err != nil {
		t.Fatalf("PutField: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	st.mem.sweep(time.Now())
	if _, ok := st.Get("j"); ok {
		t.Fatal("expired entry still retrievable")
	}
	if _, err := os.Stat(st.fieldDir("j")); !os.IsNotExist(err) {
		t.Fatalf("expired entry's field dir survived the sweep: %v", err)
	}
}

// TestFileStoreReplaceKeepsFields: Put over a live id must NOT remove its
// field files — the id is still live (this is the replace-then-remove
// hazard the OnRemove contract exists to avoid).
func TestFileStoreReplaceKeepsFields(t *testing.T) {
	st, _ := newTestFileStore(t, MemStoreConfig{TTL: time.Hour})
	st.Put("j", 1)
	if err := st.PutField("j", 0, []byte("x")); err != nil {
		t.Fatalf("PutField: %v", err)
	}
	st.Put("j", 2) // replacement, not removal
	if _, ok, err := st.Field("j", 0); err != nil || !ok {
		t.Fatalf("replacement Put removed live field files (ok=%v err=%v)", ok, err)
	}
}

// TestFileStoreRange: Range iterates live entries in id order.
func TestFileStoreRange(t *testing.T) {
	st, _ := newTestFileStore(t, MemStoreConfig{TTL: time.Hour})
	for _, id := range []string{"c", "a", "b"} {
		st.Put(id, id)
	}
	var seen []string
	st.Range(func(id string, v any) bool {
		seen = append(seen, id)
		return true
	})
	if len(seen) != 3 || seen[0] != "a" || seen[1] != "b" || seen[2] != "c" {
		t.Fatalf("Range order = %v, want [a b c]", seen)
	}
	seen = seen[:0]
	st.Range(func(id string, v any) bool {
		seen = append(seen, id)
		return false
	})
	if len(seen) != 1 {
		t.Fatalf("Range ignored early stop: %v", seen)
	}
}

// TestFileStoreSweepOrphans: field directories whose ids replay did not
// restore are removed; live ones survive.
func TestFileStoreSweepOrphans(t *testing.T) {
	st, _ := newTestFileStore(t, MemStoreConfig{TTL: time.Hour})
	if err := st.PutField("live", 0, []byte("x")); err != nil {
		t.Fatalf("PutField: %v", err)
	}
	if err := st.PutField("orphan", 0, []byte("y")); err != nil {
		t.Fatalf("PutField: %v", err)
	}
	n, err := st.SweepOrphans(func(id string) bool { return id == "live" })
	if err != nil || n != 1 {
		t.Fatalf("SweepOrphans = %d, %v; want 1 removal", n, err)
	}
	if _, ok, _ := st.Field("live", 0); !ok {
		t.Fatal("live id's fields swept")
	}
	if _, err := os.Stat(st.fieldDir("orphan")); !os.IsNotExist(err) {
		t.Fatalf("orphan dir survived: %v", err)
	}
}

// TestFileStoreDeleteRacesSweep mirrors TestMemStoreDeleteRacesSweep with
// field files in play: Put/PutField/Delete/sweep racing must leave a
// clean ledger and no leaked field directories for deleted ids.
func TestFileStoreDeleteRacesSweep(t *testing.T) {
	st, _ := newTestFileStore(t, MemStoreConfig{TTL: time.Millisecond, MaxEntries: 8, OnEvict: func(int) {}})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := fmt.Sprintf("id-%d", i%16)
				st.Put(id, fatEntry{size: 128})
				// fs.ErrNotExist is the documented lost-race-with-Delete
				// outcome; anything else is a real failure.
				if err := st.PutField(id, i%4, []byte("f")); err != nil && !errors.Is(err, fs.ErrNotExist) {
					t.Errorf("PutField: %v", err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				st.Delete(fmt.Sprintf("id-%d", i%16))
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				st.mem.sweep(time.Now())
				time.Sleep(50 * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	for i := 0; i < 16; i++ {
		st.Delete(fmt.Sprintf("id-%d", i))
	}
	if n := st.Len(); n != 0 {
		t.Fatalf("store holds %d entries after full delete", n)
	}
	if b := ledgerBytes(st.mem); b != 0 {
		t.Fatalf("byte ledger reads %d after full delete, want 0", b)
	}
	for i := 0; i < 16; i++ {
		if _, err := os.Stat(st.fieldDir(fmt.Sprintf("id-%d", i))); !os.IsNotExist(err) {
			t.Fatalf("deleted id-%d leaked its field dir", i)
		}
	}
}
