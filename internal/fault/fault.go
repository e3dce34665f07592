// Package fault is the deterministic fault-injection layer of the SMA
// pipeline's robustness story: it wraps any stream.Source (and any
// io.Reader) with a seeded schedule of the failures real satellite feeds
// carry — transient and persistent I/O errors, NaN/dead-scanline pixel
// damage, per-frame latency — so the degraded-mode machinery in
// internal/stream and internal/server can be driven through reproducible
// chaos and asserted against exact expectations. Same seed, same
// schedule, same counters, every run; see docs/ROBUSTNESS.md.
package fault

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"sma/internal/core"
	"sma/internal/stream"
)

// Kind classifies one injected fault.
type Kind int

const (
	// IOError makes Next fail without delivering the frame — the
	// truncated file, unreadable disk block, or dropped connection case.
	// Attempts > 0 makes it transient (a retry clears it).
	IOError Kind = iota
	// Damage delivers the frame with injected pixel damage: NaN samples
	// (calibration glitches) and dead scanlines (dropped detector
	// sweeps). A strict core.QualityGate rejects such frames.
	Damage
	// Slow delivers the frame intact after the configured latency — the
	// stalled-feed case that exercises timeouts, not correctness.
	Slow
)

func (k Kind) String() string {
	switch k {
	case IOError:
		return "io-error"
	case Damage:
		return "damage"
	case Slow:
		return "slow"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ErrInjected is the root of every error this package injects; transient
// entries additionally wrap stream.ErrTransient so the default retry
// classifier re-reads them.
var ErrInjected = errors.New("fault: injected failure")

// FrameFault schedules one fault against one frame index.
type FrameFault struct {
	Frame int  // frame index the fault fires on
	Kind  Kind // what goes wrong

	// Attempts makes an IOError transient: Next fails that many times,
	// then delivers the frame. <= 0 means the failure is persistent.
	Attempts int
	// BadPixels / DeadLines size the injected Damage (defaults: 3 NaN
	// samples, 1 dead scanline — enough to trip a strict gate).
	BadPixels int
	DeadLines int
	// Latency delays delivery (any kind; the whole point of Slow).
	Latency time.Duration
}

// Plan is a deterministic fault schedule over a frame sequence.
type Plan struct {
	seed   int64
	faults map[int]FrameFault
}

// NewPlan builds a schedule from explicit faults. Later faults on the
// same frame replace earlier ones. seed feeds the damage placement so
// two plans with equal seeds damage identical pixels.
func NewPlan(seed int64, faults ...FrameFault) *Plan {
	p := &Plan{seed: seed, faults: make(map[int]FrameFault, len(faults))}
	for _, f := range faults {
		p.faults[f.Frame] = f
	}
	return p
}

// RandomConfig sizes RandomPlan's seeded schedule.
type RandomConfig struct {
	FailFrames   int           // persistent I/O failures
	FlakyFrames  int           // transient I/O failures (one retry clears)
	DamageFrames int           // NaN/dead-line damaged frames
	Latency      time.Duration // applied to every faulted frame
}

// RandomPlan draws a schedule over n frames from the seed: which frames
// fail, flake, or arrive damaged is deterministic in (seed, n, cfg).
// Each frame carries at most one fault; the configured counts are
// honored exactly as long as they fit in n frames.
func RandomPlan(seed int64, n int, cfg RandomConfig) *Plan {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	total := cfg.FailFrames + cfg.FlakyFrames + cfg.DamageFrames
	if total > n {
		total = n
	}
	var faults []FrameFault
	for i := 0; i < total; i++ {
		ff := FrameFault{Frame: perm[i], Latency: cfg.Latency}
		switch {
		case i < cfg.FailFrames:
			ff.Kind = IOError
		case i < cfg.FailFrames+cfg.FlakyFrames:
			ff.Kind = IOError
			ff.Attempts = 1
		default:
			ff.Kind = Damage
		}
		faults = append(faults, ff)
	}
	return NewPlan(seed, faults...)
}

// Expectation predicts the degraded-mode counters a streaming run over
// this plan must report, assuming a strict quality gate, an unlimited
// skip budget, and a retry budget covering every transient fault — the
// configuration the chaos harness and conformance tests run. This is the
// single source of truth the invariants are asserted against.
type Expectation struct {
	Retries        int64
	FramesSkipped  int64
	PairsSkipped   int64
	Gaps           int64
	SkippedFrames  []int // sorted frame indices that cannot survive
	SurvivingPairs []int // sorted pair indices that must be bit-identical
}

// Expect computes the expectation for an n-frame sequence.
func (p *Plan) Expect(n int) Expectation {
	var e Expectation
	dead := make(map[int]bool)
	for _, f := range p.faults {
		if f.Frame < 0 || f.Frame >= n {
			continue
		}
		switch f.Kind {
		case IOError:
			if f.Attempts > 0 {
				e.Retries += int64(f.Attempts)
			} else {
				dead[f.Frame] = true
			}
		case Damage:
			dead[f.Frame] = true
		}
	}
	inGap := false
	for i := 0; i < n; i++ {
		if dead[i] {
			e.SkippedFrames = append(e.SkippedFrames, i)
			e.FramesSkipped++
			if !inGap {
				e.Gaps++
				inGap = true
			}
		} else {
			inGap = false
		}
	}
	for i := 0; i+1 < n; i++ {
		if dead[i] || dead[i+1] {
			e.PairsSkipped++
		} else {
			e.SurvivingPairs = append(e.SurvivingPairs, i)
		}
	}
	return e
}

// Source wraps src with the plan's fault schedule. It implements
// stream.Skipper, so a stream.SkipPolicy can step past persistent
// failures; skips are forwarded to the underlying source when it is a
// Skipper too.
type Source struct {
	src      stream.Source
	plan     *Plan
	idx      int
	attempts map[int]int
	sleep    func(time.Duration)
}

// WrapSource builds the faulted source.
func WrapSource(src stream.Source, plan *Plan) *Source {
	return &Source{src: src, plan: plan, attempts: make(map[int]int), sleep: time.Sleep}
}

// Next applies the schedule: fail, delay or damage the frame the cursor
// addresses, otherwise pass it through. Like every well-behaved Source,
// a failing Next does not advance the cursor.
func (s *Source) Next() (core.Frame, error) {
	ff, ok := s.plan.faults[s.idx]
	if ok && ff.Latency > 0 {
		s.sleep(ff.Latency)
	}
	if ok && ff.Kind == IOError {
		s.attempts[s.idx]++
		if ff.Attempts <= 0 {
			return core.Frame{}, fmt.Errorf("%w: persistent I/O error", ErrInjected)
		}
		if s.attempts[s.idx] <= ff.Attempts {
			return core.Frame{}, fmt.Errorf("%w: %w", ErrInjected, stream.ErrTransient)
		}
	}
	f, err := s.src.Next()
	if err != nil {
		return f, err
	}
	if ok && ff.Kind == Damage {
		f = damageFrame(f, ff, s.plan.seed, s.idx)
	}
	s.idx++
	return f, nil
}

// SkipFrame steps the cursor past a persistently failing frame. The
// pipeline only skips after a failed Next, and a failed Next never
// consumed the underlying frame (neither an injected I/O error, which
// fails before delegating, nor an underlying failure, which by the
// Source contract did not advance) — so the skip is always forwarded.
func (s *Source) SkipFrame() {
	if sk, ok := s.src.(stream.Skipper); ok {
		sk.SkipFrame()
	}
	s.idx++
}

// damageFrame clones the frame's intensity image and injects the fault's
// NaN samples and dead scanlines at seed-deterministic positions. The
// monocular I==Z aliasing is preserved so the damaged frame is shaped
// like its clean counterpart.
func damageFrame(f core.Frame, ff FrameFault, seed int64, idx int) core.Frame {
	bad := ff.BadPixels
	deadLines := ff.DeadLines
	if bad <= 0 && deadLines <= 0 {
		bad, deadLines = 3, 1
	}
	img := f.I.Clone()
	n := len(img.Data)
	for j := 0; j < bad && n > 0; j++ {
		pos := int((seed + int64(idx)*7919 + int64(j)*104729) % int64(n))
		if pos < 0 {
			pos += n
		}
		img.Data[pos] = float32(math.NaN())
	}
	for j := 0; j < deadLines && img.H > 0; j++ {
		y := int((seed + int64(idx)*31 + int64(j)*1009) % int64(img.H))
		if y < 0 {
			y += img.H
		}
		row := img.Row(y)
		for x := range row {
			row[x] = 0
		}
	}
	out := core.Frame{I: img, Extra: f.Extra}
	if f.Z == f.I || f.Z == nil {
		out.Z = img
	} else {
		out.Z = f.Z
	}
	return out
}
