package server

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"sma/internal/core"
	"sma/internal/grid"
	"sma/internal/synth"
	"sma/internal/viz"
)

// fatEntry is a test value with a declared footprint.
type fatEntry struct{ size int64 }

func (f fatEntry) SizeBytes() int64 { return f.size }

// TestMemStoreCountCap: the entry cap evicts least-recently-used entries
// at Put time — the store cannot grow with traffic history even when the
// TTL is far longer than the job rate.
func TestMemStoreCountCap(t *testing.T) {
	var evicted int
	st := NewMemStore(MemStoreConfig{
		TTL:        time.Hour, // TTL ≫ insert rate: the cap must do the bounding
		MaxEntries: 4,
		OnEvict:    func(n int) { evicted += n },
	})
	defer st.Close()
	for i := 0; i < 10; i++ {
		st.Put(fmt.Sprintf("id-%d", i), i)
	}
	if n := st.Len(); n != 4 {
		t.Fatalf("store holds %d entries, cap is 4", n)
	}
	if evicted != 6 {
		t.Fatalf("eviction callback saw %d drops, want 6", evicted)
	}
	// The survivors are the four most recent inserts.
	for i := 0; i < 6; i++ {
		if _, ok := st.Get(fmt.Sprintf("id-%d", i)); ok {
			t.Fatalf("id-%d survived past the cap", i)
		}
	}
	for i := 6; i < 10; i++ {
		if _, ok := st.Get(fmt.Sprintf("id-%d", i)); !ok {
			t.Fatalf("recent id-%d evicted while older entries should go first", i)
		}
	}
}

// TestMemStoreLRUOrder: Get refreshes recency, so a touched entry
// outlives an untouched older one when the cap bites.
func TestMemStoreLRUOrder(t *testing.T) {
	st := NewMemStore(MemStoreConfig{TTL: time.Hour, MaxEntries: 2})
	defer st.Close()
	st.Put("a", 1)
	st.Put("b", 2)
	if _, ok := st.Get("a"); !ok { // bump a above b
		t.Fatal("a missing before cap pressure")
	}
	st.Put("c", 3) // cap 2: evicts b, the least recently used
	if _, ok := st.Get("b"); ok {
		t.Fatal("b survived, but it was least recently used")
	}
	if _, ok := st.Get("a"); !ok {
		t.Fatal("a evicted despite a recent Get")
	}
	if _, ok := st.Get("c"); !ok {
		t.Fatal("fresh c missing")
	}
}

// TestMemStoreBytesCap: the byte cap evicts by reported SizeBytes, so a
// few huge results cannot pin unbounded memory under a generous count cap.
func TestMemStoreBytesCap(t *testing.T) {
	st := NewMemStore(MemStoreConfig{TTL: time.Hour, MaxEntries: 1000, MaxBytes: 10 << 10})
	defer st.Close()
	for i := 0; i < 8; i++ {
		st.Put(fmt.Sprintf("fat-%d", i), fatEntry{size: 4 << 10})
	}
	if b := ledgerBytes(st); b > 10<<10 {
		t.Fatalf("store holds %d bytes, cap is %d", b, 10<<10)
	}
	if n := st.Len(); n > 2 {
		t.Fatalf("store holds %d 4KiB entries under a 10KiB cap", n)
	}
	if _, ok := st.Get("fat-7"); !ok {
		t.Fatal("most recent entry evicted under the byte cap")
	}
}

// TestMemStoreReplaceAccounting: Put over an existing id must release the
// old size before charging the new one, or the byte count drifts.
func TestMemStoreReplaceAccounting(t *testing.T) {
	st := NewMemStore(MemStoreConfig{TTL: time.Hour, MaxBytes: 1 << 20})
	defer st.Close()
	st.Put("a", fatEntry{size: 1024})
	st.Put("a", fatEntry{size: 2048})
	if n := st.Len(); n != 1 {
		t.Fatalf("replacement left %d entries, want 1", n)
	}
	// 2048 + the 256-byte flat overhead would indicate double counting.
	if b := ledgerBytes(st); b != 2048 {
		t.Fatalf("store accounts %d bytes after replacement, want 2048", b)
	}
	st.Delete("a")
	if b := ledgerBytes(st); b != 0 {
		t.Fatalf("store accounts %d bytes after delete, want 0", b)
	}
}

// TestMemStoreSweepRefreshesSizes: values that grow after Put (a running
// job retaining pair fields) are re-measured at sweep and the byte cap
// re-enforced against the true footprint.
func TestMemStoreSweepRefreshesSizes(t *testing.T) {
	st := NewMemStore(MemStoreConfig{TTL: time.Hour, MaxBytes: 4 << 10})
	defer st.Close()
	grower := &growingEntry{size: 256}
	st.Put("g", grower)
	st.Put("small", fatEntry{size: 256})
	grower.setSize(8 << 10) // now alone exceeds the cap
	st.sweep(time.Now())
	if b := ledgerBytes(st); b > 4<<10 {
		t.Fatalf("store accounts %d bytes after sweep, cap is %d", b, 4<<10)
	}
	if n := st.Len(); n != 1 {
		t.Fatalf("store holds %d entries after cap re-enforcement, want 1", n)
	}
}

type growingEntry struct {
	mu   sync.Mutex
	size int64
}

func (g *growingEntry) setSize(n int64) {
	g.mu.Lock()
	g.size = n
	g.mu.Unlock()
}

func (g *growingEntry) SizeBytes() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.size
}

// TestMemStoreDeleteRacesSweep hammers explicit Delete (the DELETE
// /v1/jobs/{id} path) against TTL sweeps and cap-evicting Puts. The race
// detector plus the final accounting are the assertions.
func TestMemStoreDeleteRacesSweep(t *testing.T) {
	st := NewMemStore(MemStoreConfig{TTL: time.Millisecond, MaxEntries: 8, OnEvict: func(int) {}})
	defer st.Close()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				st.Put(fmt.Sprintf("id-%d", i%16), fatEntry{size: 128})
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				st.Delete(fmt.Sprintf("id-%d", i%16))
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				st.sweep(time.Now())
				time.Sleep(50 * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	// Drain everything and verify the byte ledger returns to zero — any
	// double-remove or lost-size bug under the race shows up here.
	for i := 0; i < 16; i++ {
		st.Delete(fmt.Sprintf("id-%d", i))
	}
	if n := st.Len(); n != 0 {
		t.Fatalf("store holds %d entries after full delete", n)
	}
	if b := ledgerBytes(st); b != 0 {
		t.Fatalf("byte ledger reads %d after full delete, want 0", b)
	}
}

// TestTrackResultSVGMatchesGridRendering: the stored form of a track —
// int8 or int16 flow planes and the background's packed gray levels —
// renders the very SVG bytes the tracked flow draws over the full first
// frame, for integer, fractional, NaN-containing and flat backgrounds
// (on an odd pixel count, so the last level byte is half used), for flow
// components up to the ±254 bound and for a flow that fits int8, at
// default and custom render options.
func TestTrackResultSVGMatchesGridRendering(t *testing.T) {
	const w, h = 23, 17
	frame := synth.Hurricane(w, h, 9).Frame(0)
	integer := frame.Clone()
	for i, v := range integer.Data {
		integer.Data[i] = float32(math.Round(float64(v)))
	}
	withNaN := frame.Clone()
	withNaN.Set(3, 4, float32(math.NaN()))
	withNaN.Set(20, 16, float32(math.NaN()))
	flat := grid.New(w, h)
	flat.Fill(42)
	flow := grid.NewVectorField(w, h)
	for i := range flow.U.Data {
		flow.U.Data[i] = float32(i%509 - 254)
		flow.V.Data[i] = float32((i*7)%5 - 2)
	}
	small := grid.NewVectorField(w, h)
	for i := range small.U.Data {
		small.U.Data[i] = float32(i%256 - 128)
		small.V.Data[i] = float32(127 - i%256)
	}
	for _, bg := range []struct {
		name string
		g    *grid.Grid
		flow *grid.VectorField
		size int // bytes per pixel of the two flow planes
	}{
		{"integer", integer, flow, 4}, {"fractional", frame, flow, 4}, {"nan", withNaN, flow, 4},
		{"flat", flat, flow, 4}, {"int8-flow", frame, small, 2},
	} {
		flow := bg.flow
		t.Run(bg.name, func(t *testing.T) {
			tr, err := newTrackResult("id", flow, bg.g, core.ScaledParams())
			if err != nil {
				t.Fatal(err)
			}
			if got, want := tr.SizeBytes(), int64(256+bg.size*w*h+(w*h+1)/2); got != want {
				t.Fatalf("SizeBytes = %d, want %d", got, want)
			}
			for _, opt := range []viz.QuiverOptions{{}, {Step: 3, Scale: 0.5, MinMagnitude: 1}} {
				var got, want bytes.Buffer
				if err := tr.WriteSVG(&got, opt); err != nil {
					t.Fatal(err)
				}
				gridOpt := opt
				gridOpt.Background = bg.g
				if err := viz.WriteQuiverSVG(&want, flow, gridOpt); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("stored-form SVG (%d B) differs from the grid rendering (%d B)", got.Len(), want.Len())
				}
			}
		})
	}
	flow.U.Data[5] = 0.5
	if _, err := newTrackResult("id", flow, frame, core.ScaledParams()); err == nil {
		t.Fatal("a fractional flow component was stored lossily")
	}
}

// ledgerBytes reads the store's accounted footprint.
func ledgerBytes(s *MemStore) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}
