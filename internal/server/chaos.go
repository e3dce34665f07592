package server

import (
	"context"
	"fmt"
	"time"
)

// ChaosOptions configures one chaos run against a live smaserve: a clean
// reference job followed by rounds of fault-injected jobs, each checked
// against the schedule's exact expectation.
type ChaosOptions struct {
	URL   string // server base URL, no trailing slash
	Scene string // synthetic scene name (default hurricane)
	Size  int    // frame edge in pixels (default 48)
	Seed  int64  // base seed; round r uses Seed+r (default 7)

	Frames int // sequence length per job (default 10)
	Rounds int // fault-injected jobs to run (default 3)

	// Per-round schedule sizing (defaults: 1 fail, 1 flaky, 1 damaged).
	FailFrames   int
	FlakyFrames  int
	DamageFrames int

	// PollInterval paces job-status polling (default 50ms).
	PollInterval time.Duration

	// GoroutineSlack is how many extra goroutines the server may hold
	// after the run before the leak check fails (default 8 — HTTP
	// keep-alive conns and sweepers, not a pipeline leak's dozens).
	GoroutineSlack int
}

func (o ChaosOptions) withDefaults() ChaosOptions {
	if o.Scene == "" {
		o.Scene = "hurricane"
	}
	if o.Size <= 0 {
		o.Size = 48
	}
	if o.Seed == 0 {
		o.Seed = 7
	}
	if o.Frames <= 0 {
		o.Frames = 10
	}
	if o.Rounds <= 0 {
		o.Rounds = 3
	}
	if o.FailFrames == 0 && o.FlakyFrames == 0 && o.DamageFrames == 0 {
		o.FailFrames, o.FlakyFrames, o.DamageFrames = 1, 1, 1
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 50 * time.Millisecond
	}
	if o.GoroutineSlack <= 0 {
		o.GoroutineSlack = 8
	}
	return o
}

// ChaosResult is a chaos run's verdict: counts of what ran and every
// invariant violation found. An empty Violations list means the server
// upheld the degraded-mode contract.
type ChaosResult struct {
	Rounds           int      `json:"rounds"`
	Frames           int      `json:"frames"`
	PairsVerified    int      `json:"pairs_verified"`
	PairsSkipped     int64    `json:"pairs_skipped"`
	Retries          int64    `json:"retries"`
	GoroutinesBefore int      `json:"goroutines_before"`
	GoroutinesAfter  int      `json:"goroutines_after"`
	Violations       []string `json:"violations,omitempty"`
}

// RunChaos drives a live server through seeded fault schedules and
// asserts the degraded-mode invariants: jobs complete with per-pair
// statuses, counters match each plan's expectation exactly, surviving
// pairs are identical to an undamaged job, the server's degraded
// counters advance by exactly the injected amounts, and no goroutines
// leak. Assumes a quiet server (the counter-delta checks are not
// meaningful under concurrent foreign traffic). Returns an error only
// for harness failures; contract violations land in Violations.
func RunChaos(ctx context.Context, opt ChaosOptions) (ChaosResult, error) {
	opt = opt.withDefaults()
	var res ChaosResult
	res.Rounds = opt.Rounds
	res.Frames = opt.Frames
	violate := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}

	client := JobClient{URL: opt.URL, Poll: opt.PollInterval}
	before, err := client.Counters(ctx)
	if err != nil {
		return res, fmt.Errorf("chaos: baseline metrics scrape: %w", err)
	}
	res.GoroutinesBefore = int(before["smaserve_goroutines"])

	ref := &SyntheticRef{Scene: opt.Scene, Size: opt.Size, Seed: opt.Seed, Frames: opt.Frames}
	var clean JobView
	if err := client.Run(ctx, JobRequest{Synthetic: ref}, &clean); err != nil {
		return res, fmt.Errorf("chaos: clean reference job: %w", err)
	}
	if clean.Status != JobDone {
		return res, fmt.Errorf("chaos: clean job finished %q: %s", clean.Status, clean.Error)
	}
	if len(clean.Pairs) != opt.Frames-1 {
		return res, fmt.Errorf("chaos: clean job reports %d pairs, want %d", len(clean.Pairs), opt.Frames-1)
	}

	var wantRetries, wantFramesSkipped, wantPairsSkipped, wantGaps int64
	for round := 0; round < opt.Rounds; round++ {
		seed := opt.Seed + int64(round)
		spec := &FaultSpec{Seed: seed, FailFrames: opt.FailFrames,
			FlakyFrames: opt.FlakyFrames, DamageFrames: opt.DamageFrames}
		plan, err := spec.plan(opt.Frames)
		if err != nil {
			return res, fmt.Errorf("chaos: round %d spec: %w", round, err)
		}
		e := plan.Expect(opt.Frames)
		wantRetries += e.Retries
		wantFramesSkipped += e.FramesSkipped
		wantPairsSkipped += e.PairsSkipped
		wantGaps += e.Gaps

		var view JobView
		if err := client.Run(ctx, JobRequest{Synthetic: ref, Fault: spec}, &view); err != nil {
			return res, fmt.Errorf("chaos: round %d: %w", round, err)
		}
		wantStatus := JobDone
		if len(e.SurvivingPairs) == 0 {
			wantStatus = JobFailed
		}
		if view.Status != wantStatus {
			violate("round %d (seed %d): job finished %q, want %q (%s)", round, seed, view.Status, wantStatus, view.Error)
			continue
		}
		st := view.Stats
		if st.Retries != e.Retries || st.FramesSkipped != e.FramesSkipped ||
			st.PairsSkipped != e.PairsSkipped || st.Gaps != e.Gaps {
			violate("round %d (seed %d): stats %+v deviate from expectation %+v", round, seed, st, e)
		}
		if len(view.Pairs) != opt.Frames-1 {
			violate("round %d (seed %d): %d pairs reported, want %d", round, seed, len(view.Pairs), opt.Frames-1)
			continue
		}
		surviving := make(map[int]bool, len(e.SurvivingPairs))
		for _, p := range e.SurvivingPairs {
			surviving[p] = true
		}
		for i, p := range view.Pairs {
			if p.Pair != i {
				violate("round %d (seed %d): pair slot %d holds index %d", round, seed, i, p.Pair)
				continue
			}
			if surviving[i] {
				if p.Status != PairOK {
					violate("round %d (seed %d): pair %d status %q, want ok", round, seed, i, p.Status)
				} else if p.MeanMag != clean.Pairs[i].MeanMag {
					violate("round %d (seed %d): pair %d mean magnitude %v differs from clean %v",
						round, seed, i, p.MeanMag, clean.Pairs[i].MeanMag)
				} else {
					res.PairsVerified++
				}
			} else if p.Status != PairSkipped {
				violate("round %d (seed %d): pair %d status %q, want skipped", round, seed, i, p.Status)
			}
		}
		res.Retries += st.Retries
		res.PairsSkipped += st.PairsSkipped
	}

	after, err := client.Counters(ctx)
	if err != nil {
		return res, fmt.Errorf("chaos: final metrics scrape: %w", err)
	}
	for name, want := range map[string]int64{
		"smaserve_frame_retries_total":  wantRetries,
		"smaserve_frames_skipped_total": wantFramesSkipped,
		"smaserve_pairs_skipped_total":  wantPairsSkipped,
		"smaserve_stream_gaps_total":    wantGaps,
		"smaserve_pairs_failed_total":   0,
	} {
		if got := after[name] - before[name]; got != want {
			violate("counter %s advanced by %d, want %d", name, got, want)
		}
	}
	// Goroutine leak canary: allow the count to settle, then require it
	// back near the baseline.
	n, settled, err := client.AwaitGoroutines(ctx, res.GoroutinesBefore+opt.GoroutineSlack)
	if err != nil {
		return res, fmt.Errorf("chaos: final metrics scrape: %w", err)
	}
	res.GoroutinesAfter = n
	if !settled {
		violate("goroutines grew from %d to %d (slack %d): pipeline leak",
			res.GoroutinesBefore, res.GoroutinesAfter, opt.GoroutineSlack)
	}
	return res, nil
}
