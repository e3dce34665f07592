// Command smabench regenerates every table and figure of the paper's
// evaluation section from this repository's implementations and prints
// them side by side with the numbers the paper reports.
//
// Usage:
//
//	smabench                     # run everything
//	smabench -only table2,fig4   # run a subset
//	smabench -size 96            # scale of the functional experiments
//	smabench -only track -out /tmp
//
// The BENCH experiments (track, pyramid, scaling, stream, serve, chaos,
// cluster, recovery) write their trajectory point to -out as
// BENCH_<key>.json. Those with a gate in internal/eval (track, pyramid,
// scaling, cluster, recovery) are then checked against it; smabench exits
// non-zero if any gate fails, after writing every file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"sma/internal/eval"
)

// experiments registers every -only key with a one-line description; the
// order here is the order -list prints and roughly the order a full run
// executes.
var experiments = []struct{ Key, Desc string }{
	{"table1", "neighborhood sizes, Hurricane Frederic (paper Table 1)"},
	{"table2", "modeled MP-2 stage times vs the paper's (Table 2)"},
	{"table3", "neighborhood sizes, GOES-9 (Table 3)"},
	{"table4", "modeled GOES-9 stage times (Table 4)"},
	{"luis", "Hurricane Luis 490-frame sequence cost model (§5)"},
	{"fig4", "time per pixel correspondence vs z-template size (Figure 4)"},
	{"fig6", "GOES-9 thunderstorm tracking sequence (Figure 6)"},
	{"barbs", "wind-barb accuracy vs ground truth (§5.1)"},
	{"baselines", "estimator comparison on a two-layer cloud deck"},
	{"postproc", "motion-field post-processing extensions (§6)"},
	{"domains", "ocean/biology/ice application-domain scenes (§1)"},
	{"sweep", "template-size accuracy vs modeled cost trade-off"},
	{"track", "block vs naive tracking kernel (BENCH_track.json)"},
	{"pyramid", "summed-window search vs the block kernel (BENCH_pyramid.json)"},
	{"scaling", "strong/weak scaling of the tiled parallel driver (BENCH_scaling.json)"},
	{"stream", "multi-frame streaming throughput (BENCH_stream.json)"},
	{"serve", "smaserve HTTP throughput under load (BENCH_serve.json)"},
	{"chaos", "degraded-mode streaming under seeded faults (BENCH_chaos.json)"},
	{"cluster", "coordinator/worker job-plane scaling (BENCH_cluster.json)"},
	{"recovery", "coordinator crash-recovery drill (BENCH_recovery.json)"},
	{"ablation", "neighborhood fetch and PE-memory segmentation ablations"},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("smabench: ")
	var (
		list     = flag.Bool("list", false, "list the registered experiments and exit")
		only     = flag.String("only", "", "comma-separated subset of the experiment keys (-list enumerates them)")
		size     = flag.Int("size", 64, "image size for the functional (non-modeled) experiments")
		seed     = flag.Int64("seed", 5, "scene seed for the functional experiments")
		report   = flag.String("report", "", "write the full experiment record as markdown to this file and exit")
		out      = flag.String("out", ".", "directory the BENCH_<key>.json trajectory points are written to")
		frames   = flag.Int("frames", 6, "sequence length for the stream throughput benchmark")
		workers  = flag.Int("workers", 0, "pair-tracking workers for the stream benchmark (0 = GOMAXPROCS)")
		requests = flag.Int("requests", 24, "request count for the serve benchmark")
		clients  = flag.Int("clients", 8, "concurrent clients for the serve benchmark")
		ladder   = flag.String("scaling-workers", "1,2,4,8", "comma-separated worker ladder for the scaling study")

		clusterLadder = flag.String("cluster-workers", "1,2,4", "comma-separated worker-node ladder for the cluster experiment")
		clusterBin    = flag.String("cluster-bin", "", "smaserve binary for process-mode cluster workers (empty = in-process)")
		clusterJobs   = flag.Int("cluster-jobs", 3, "jobs per cluster rung")
		clusterFrames = flag.Int("cluster-frames", 17, "frames per cluster job")

		recoveryBin = flag.String("recovery-bin", "", "smaserve binary for the crash-recovery drill (empty = skip the drill)")
	)
	flag.Parse()
	if *list {
		for _, e := range experiments {
			fmt.Printf("%-10s %s\n", e.Key, e.Desc)
		}
		return
	}
	known := map[string]bool{}
	for _, e := range experiments {
		known[e.Key] = true
	}
	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			k = strings.TrimSpace(k)
			if !known[k] {
				log.Fatalf("unknown experiment %q (run smabench -list)", k)
			}
			want[k] = true
		}
	}
	run := func(key string) bool { return len(want) == 0 || want[key] }
	failed := false
	save := func(key string, r any) {
		if err := saveBench(*out, key, r); err != nil {
			log.Print(err)
			failed = true
		}
	}
	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			log.Fatal(err)
		}
		if err := eval.WriteReport(f, *size, *seed); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", *report)
		return
	}

	if run("table1") {
		fmt.Println("Table 1 — Neighborhood sizes, Hurricane Frederic (512×512)")
		for _, r := range eval.Table1() {
			fmt.Printf("  %-22s %-10s %s\n", r.Name, r.Variable, r.Window)
		}
		fmt.Println()
	}
	if run("table2") {
		t, err := eval.Table2()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(t.Format())
	}
	if run("table3") {
		fmt.Println("Table 3 — Neighborhood sizes, GOES-9 (512×512)")
		for _, r := range eval.Table3() {
			fmt.Printf("  %-22s %-10s %s\n", r.Name, r.Variable, r.Window)
		}
		fmt.Println()
	}
	if run("table4") {
		t, err := eval.Table4()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(t.Format())
	}
	if run("luis") {
		l, err := eval.Luis()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Hurricane Luis (§5) — 490 frames, continuous model")
		fmt.Printf("  per image pair:  modeled %v   paper ≈%v\n", l.PerPairModel, l.PerPairPaper)
		fmt.Printf("  whole sequence:  modeled %v (+ %v MPDA I/O)\n", l.TotalModel, l.SequenceIO)
		fmt.Printf("  speedup:         modeled %.0f   paper >%.0f\n\n", l.SpeedupModel, l.SpeedupPaper)
	}
	if run("fig4") {
		pts, err := eval.Figure4(nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Figure 4 — time per pixel correspondence vs z-template size")
		fmt.Printf("  %-10s %15s %15s\n", "template", "modeled (SGI)", "measured (host)")
		for _, p := range pts {
			fmt.Printf("  %3dx%-6d %15v %15v\n", p.Window, p.Window, p.Modeled, p.Measured)
		}
		fmt.Println()
	}
	if run("barbs") {
		r, err := eval.WindBarbExperiment(*size, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("§5.1 — Hurricane Frederic wind-barb accuracy (scaled)")
		fmt.Printf("  %d tracers on a %d×%d stereo scene\n", len(r.Barbs), r.Size, r.Size)
		fmt.Printf("  barb RMSE vs reference: %.3f px   (paper: < 1 px)\n", r.RMSE)
		fmt.Printf("  dense interior RMSE:    %.3f px\n", r.DenseRMSE)
		fmt.Printf("  ASA disparity RMSE:     %.3f px\n", r.StereoRMSE)
		fmt.Printf("  parallel == sequential: %v   (paper: identical results)\n\n", r.ParallelEqual)
	}
	if run("fig6") {
		steps, err := eval.Figure6(*size, 4, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Figure 6 — GOES-9 thunderstorm tracking (scaled, 4 timesteps)")
		for _, s := range steps {
			fmt.Printf("  t=%d  RMSE=%.3f px  mean flow=(%.2f, %.2f)\n", s.T, s.RMSE, s.MeanU, s.MeanV)
			fmt.Println(indent(s.Quiver, "    "))
		}
	}
	if run("baselines") {
		rows, err := eval.BaselineComparison(*size, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Baseline comparison — two-layer cloud deck (per-layer ground truth)")
		fmt.Printf("  %-26s %10s %10s %10s\n", "estimator", "RMSE px", "AAE deg", "exact %")
		for _, r := range rows {
			fmt.Printf("  %-26s %10.3f %10.2f %9.1f%%\n", r.Name, r.RMSE, r.AAE, r.ExactPct)
		}
		fmt.Println()
	}
	if run("postproc") {
		rows, err := eval.PostprocExperiment(*size, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("§6 extensions — motion-field post-processing (hurricane scene)")
		for _, r := range rows {
			fmt.Printf("  %-24s RMSE %.3f px\n", r.Name, r.RMSE)
		}
		fmt.Println()
	}
	if run("domains") {
		fmt.Println("Application domains (paper §1: oceans, biology)")
		if r, err := eval.EddiesExperiment(*size, *seed); err == nil {
			fmt.Printf("  %-16s RMSE %.3f px, near-exact %.1f%%\n", r.Name, r.RMSE, r.ExactPct)
		} else {
			log.Fatal(err)
		}
		if r, err := eval.FissionExperiment(*size, *seed); err == nil {
			fmt.Printf("  %-16s RMSE %.3f px, near-exact %.1f%% (daughter bodies)\n", r.Name, r.RMSE, r.ExactPct)
		} else {
			log.Fatal(err)
		}
		if r, err := eval.IceFloesExperiment(*size, *seed); err == nil {
			fmt.Printf("  %-16s RMSE %.3f px, near-exact %.1f%% (floe pixels)\n", r.Name, r.RMSE, r.ExactPct)
		} else {
			log.Fatal(err)
		}
		if rows, err := eval.PlumeRobustness(*size, *seed, nil); err == nil {
			for _, r := range rows {
				fmt.Printf("  %-22s RMSE %.3f px, near-exact %.1f%% (plume pixels)\n", r.Name, r.RMSE, r.ExactPct)
			}
		} else {
			log.Fatal(err)
		}
		fmt.Println()
	}
	if run("sweep") {
		pts, err := eval.TemplateAccuracySweep(*size, *seed, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Template-size trade-off — accuracy vs modeled sequential cost")
		fmt.Printf("  %-10s %12s %18s\n", "template", "barb RMSE", "SGI time/pixel")
		for _, p := range pts {
			fmt.Printf("  %3dx%-6d %9.3f px %18v\n", p.Window, p.Window, p.RMSE, p.PerPixel)
		}
		fmt.Println()
	}
	if run("track") {
		r, err := eval.TrackThroughputExperiment(context.Background(), *size, *workers, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Tracking kernel — block kernel vs naive per-hypothesis evaluation")
		fmt.Printf("  %d×%d semi-fluid pair, %d hypotheses × %d template pixels per tracked pixel, median of %d interleaved runs\n",
			r.Size, r.Size, r.Hypotheses, r.TemplatePixels, r.Reps)
		fmt.Printf("  reference: %.3fs [%.3f, %.3f] (%.0f px/s, %.0f ns/hyp)\n",
			r.Reference.MedianSec, r.Reference.MinSec, r.Reference.MaxSec, r.PixelsPerSecRef, r.NsPerHypothesisRef)
		fmt.Printf("  block kernel: %.3fs [%.3f, %.3f] (%.0f px/s, %.0f ns/hyp)   speedup %.2fx\n",
			r.Optimized.MedianSec, r.Optimized.MinSec, r.Optimized.MaxSec, r.PixelsPerSec, r.NsPerHypothesis, r.SpeedupVsReference)
		fmt.Printf("  parallel (%d workers): %.3fs [%.3f, %.3f] (%.0f px/s)   speedup %.2fx\n",
			r.Workers, r.Parallel.MedianSec, r.Parallel.MinSec, r.Parallel.MaxSec, r.PixelsPerSecParallel, r.SpeedupParallel)
		fmt.Printf("  bit-identical to reference kernel: %v\n", r.BitIdentical)
		save("track", r)
	}
	if run("pyramid") {
		r, err := eval.PyramidExperiment(context.Background(), *size, *workers, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Pyramid option — summed-window exhaustive search vs the block kernel")
		fmt.Printf("  %d×%d continuous-model hurricane pair, %d workers, median of %d runs (%s, %s)\n",
			r.Size, r.Size, r.Workers, r.Reps, r.Host.CPU, r.Host.GoVersion)
		fmt.Printf("  %-6s %8s %12s %12s %9s %10s %11s\n",
			"NZS", "hyp/px", "block s", "summed s", "speedup", "RMSE px", "agreement")
		for _, pt := range r.Points {
			fmt.Printf("  %-6d %8d %12.3f %12.3f %8.2fx %10.4f %10.2f%%\n",
				pt.NZS, pt.Hypotheses, pt.Exhaustive.MedianSec, pt.Summed.MedianSec,
				pt.Speedup, pt.RMSE, 100*pt.Agreement)
		}
		fmt.Printf("  bit-identical to its oracle: %v; lowest argmin agreement %.4f\n", r.BitIdentical, r.MinAgreement)
		fmt.Printf("  fixture RMSE vs block kernel: fig5 %.4f px, fig6 %.4f px\n", r.Fig5RMSE, r.Fig6RMSE)
		save("pyramid", r)
	}
	if run("scaling") {
		var counts []int
		for _, s := range strings.Split(*ladder, ",") {
			var w int
			if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &w); err != nil || w < 1 {
				log.Fatalf("bad -scaling-workers entry %q", s)
			}
			counts = append(counts, w)
		}
		r, err := eval.ScalingExperiment(context.Background(), *size, counts, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Scaling study — tile-scheduled parallel driver (strong and weak)")
		fmt.Printf("  base %d×%d semi-fluid pair, GOMAXPROCS %d\n", r.BaseSize, r.BaseSize, r.GoMaxProcs)
		fmt.Printf("  serial: reference %.3fs, optimized %.3fs (%.2fx)\n",
			r.ReferenceSec, r.SerialSec, r.SpeedupVsRef)
		fmt.Println("  strong (fixed input):")
		for _, pt := range r.Strong {
			fmt.Printf("    %2d workers: %.3fs  speedup %.2fx  efficiency %.2f\n",
				pt.Workers, pt.Sec, pt.Speedup, pt.Efficiency)
		}
		fmt.Println("  weak (pixels ∝ workers):")
		for _, pt := range r.Weak {
			fmt.Printf("    %2d workers @ %3d×%-3d: %.3fs  efficiency %.2f\n",
				pt.Workers, pt.Size, pt.Size, pt.Sec, pt.Efficiency)
		}
		fmt.Printf("  parallel beats serial (≥4 workers): %v   bit-identical: %v\n",
			r.ParallelBeatsSerial, r.BitIdentical)
		save("scaling", r)
	}
	if run("stream") {
		r, err := eval.StreamThroughputExperiment(*size, *frames, *workers, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Streaming pipeline — multi-frame throughput with prepared-surface caching")
		fmt.Printf("  %d frames at %d×%d, %d workers, LRU capacity %d\n",
			r.Frames, r.Size, r.Size, r.Workers, r.CacheSize)
		fmt.Printf("  surface fits: %d computed, %d reused (pairwise mode would fit %d)\n",
			r.FitsComputed, r.FitsReused, 2*(r.Frames-1))
		fmt.Printf("  pairwise baseline: %.3fs   streamed: %.3fs   speedup %.2fx\n",
			r.PairwiseSec, r.StreamSec, r.Speedup)
		fmt.Printf("  throughput: %.2f frames/s (%.2f pairs/s), bit-identical: %v\n",
			r.FramesPerSec, r.PairsPerSec, r.BitIdentical)
		save("stream", r)
	}
	if run("serve") {
		r, err := eval.ServeThroughputExperiment(context.Background(), *size/2, *requests, *clients, *workers, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("HTTP serving — smaserve under concurrent load, bit-identity verified")
		fmt.Printf("  %d requests at concurrency %d, %d×%d frames\n",
			r.Requests, r.Concurrency, r.Size, r.Size)
		fmt.Printf("  errors: %d   backpressure retries: %d   rejected: %d   mismatches: %d\n",
			r.Errors, r.Retries, r.Rejected, r.Mismatches)
		fmt.Printf("  %.1f req/s   latency p50 %.0fms  p90 %.0fms  p99 %.0fms  max %.0fms\n",
			r.ReqPerSec, r.P50Ms, r.P90Ms, r.P99Ms, r.MaxMs)
		fmt.Printf("  bit-identical to sequential tracker: %v\n", r.BitIdentical)
		save("serve", r)
	}
	if run("chaos") {
		frames := *frames
		if frames < 8 {
			frames = 8
		}
		r, err := eval.FaultToleranceExperiment(*size, frames, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Fault tolerance — degraded-mode streaming under a seeded fault schedule")
		fmt.Printf("  %d frames at %d×%d: %d fail, %d flaky, %d damaged (seed %d)\n",
			r.Frames, r.Size, r.Size, r.FailFrames, r.FlakyFrames, r.DamageFrames, r.Seed)
		fmt.Printf("  retries %d, frames skipped %d, pairs skipped %d, gaps %d — counters exact: %v\n",
			r.Retries, r.FramesSkipped, r.PairsSkipped, r.Gaps, r.CountersExact)
		fmt.Printf("  %d surviving pairs bit-identical to the undamaged run: %v\n",
			r.SurvivingPairs, r.BitIdentical)
		fmt.Printf("  clean %.3fs   degraded %.3fs   overhead %.1f%%\n",
			r.CleanSec, r.DegradedSec, r.OverheadPct)
		save("chaos", r)
	}
	if run("cluster") {
		var counts []int
		for _, s := range strings.Split(*clusterLadder, ",") {
			var w int
			if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &w); err != nil || w < 1 {
				log.Fatalf("bad -cluster-workers entry %q", s)
			}
			counts = append(counts, w)
		}
		r, err := eval.ClusterScalingExperiment(context.Background(), eval.ClusterScalingOptions{
			Size:    *size / 2,
			Frames:  *clusterFrames,
			Jobs:    *clusterJobs,
			Workers: counts,
			Seed:    *seed,
			Bin:     *clusterBin,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Distributed job plane — coordinator/worker sharding up a node ladder")
		fmt.Printf("  %d jobs per rung, %d frames at %d×%d, %d pairs/shard, %s workers, %d cores\n",
			r.Jobs, r.Frames, r.Size, r.Size, r.ShardPairs, r.Mode, r.Cores)
		for _, rung := range r.Rungs {
			fmt.Printf("  %2d workers: %.2f jobs/s (%.1f pairs/s)  job p50 %.2fs max %.2fs  retries %d\n",
				rung.Workers, rung.JobsPerSec, rung.PairsPerSec, rung.JobP50Sec, rung.JobMaxSec, rung.DispatchRetries)
		}
		fmt.Printf("  speedup at widest rung: %.2fx   bit-identical to offline tracker: %v\n",
			r.SpeedupAtMax, r.BitIdentical)
		save("cluster", r)
	}
	if run("recovery") {
		fmt.Println("Durable job plane — SIGKILL-coordinator crash-recovery drill")
		if *recoveryBin == "" {
			fmt.Print("  skipped: the drill kills a real process; point -recovery-bin at a smaserve binary\n\n")
		} else {
			r, err := eval.RecoveryExperiment(context.Background(), eval.RecoveryOptions{
				Bin:  *recoveryBin,
				Seed: *seed,
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %d workers, %d frames at %d×%d, %d shards of %d pairs\n",
				r.Workers, r.Frames, r.Size, r.Size, r.Shards, r.ShardPairs)
			fmt.Printf("  coordinator exit %d after %d checkpoints; resumed=%v, %d shards restored\n",
				r.CoordinatorExit, r.CrashAfterShards, r.Resumed, r.ShardsRestored)
			fmt.Printf("  %d pairs verified bit-identical: %v   crash %.2fs resume %.2fs\n",
				r.PairsVerified, r.BitIdentical, r.CrashPhaseSec, r.ResumeSec)
			save("recovery", r)
		}
	}
	if run("ablation") {
		fmt.Println("Ablation — neighborhood fetch design (§3.2/§4.2), 121×121 template at paper scale")
		abl, err := eval.ReadoutAblation(60)
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range abl {
			fmt.Printf("  %-42s xnet=%-9d mem=%-9d time=%v\n", r.Name, r.XNet, r.Mem, r.Time)
		}
		fmt.Println("\nAblation — PE memory vs segmentation (§4.3), Frederic configuration")
		for _, r := range eval.SegmentationAblation(nil) {
			if r.Err != "" {
				fmt.Printf("  %6d B/PE: infeasible (%s)\n", r.MemPerPE, r.Err)
			} else {
				fmt.Printf("  %6d B/PE: %d segment(s), modeled total %v\n", r.MemPerPE, r.Segments, r.Total)
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

// saveBench writes r to dir/BENCH_<key>.json as indented JSON plus a
// trailing newline, then runs r's gate if it has one. A result that fails
// its gate still leaves its file behind; the gate's error is returned.
func saveBench(dir, key string, r any) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+key+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", path)
	if g, ok := r.(interface{ Check() error }); ok {
		if err := g.Check(); err != nil {
			return fmt.Errorf("%s gate failed:\n%w", key, err)
		}
		fmt.Printf("  %s gate: OK\n", key)
	}
	fmt.Println()
	return nil
}

func indent(s, pre string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = pre + lines[i]
	}
	return strings.Join(lines, "\n")
}
