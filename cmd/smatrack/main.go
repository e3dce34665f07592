// Command smatrack runs the Semi-fluid Motion Analysis algorithm on a
// pair of PGM images and reports the dense motion field: summary
// statistics, an ASCII quiver rendering, and optionally the U/V components
// as PGM images.
//
// Usage:
//
//	smatrack -i0 frame_000.pgm -i1 frame_001.pgm -nzs 3 -nzt 4 -nss 1
//	smatrack -i0 a.pgm -i1 b.pgm -driver maspar -pe 16 -scheme raster
//	smatrack -stream f0.pgm,f1.pgm,f2.pgm,f3.pgm -stream-workers 4
//
// With -z0/-z1 the given surface (height/disparity) maps drive the normal
// computation, as in the paper's stereo runs; otherwise the intensity
// images are treated as digital surfaces (the paper's monocular mode).
//
// -stream switches to the multi-frame pipeline (docs/PIPELINE.md): every
// consecutive pair of the listed frames is tracked, each frame's surface
// fit computed once and reused across its two pairs, with results
// bit-identical to running the pairs one at a time.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"sma/internal/core"
	"sma/internal/eval"
	"sma/internal/grid"
	"sma/internal/ingest"
	"sma/internal/maspar"
	"sma/internal/quality"
	"sma/internal/sequence"
	"sma/internal/stream"
	"sma/internal/viz"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("smatrack: ")
	var (
		i0Path = flag.String("i0", "", "intensity image at t (PGM, required)")
		i1Path = flag.String("i1", "", "intensity image at t+1 (PGM, required)")
		z0Path = flag.String("z0", "", "surface map at t (PGM, optional)")
		z1Path = flag.String("z1", "", "surface map at t+1 (PGM, optional)")
		ns     = flag.Int("ns", 2, "surface-fit radius (window 2·ns+1)")
		nzs    = flag.Int("nzs", 3, "search radius")
		nzt    = flag.Int("nzt", 4, "template radius")
		nst    = flag.Int("nst", 2, "semi-fluid template radius")
		nss    = flag.Int("nss", 1, "semi-fluid search radius (0 = continuous model)")
		robust = flag.Bool("robust", false, "enable Huber-robust motion solve")

		pyramid = flag.Int("pyramid", 0, "> 1 selects the summed-window exhaustive search (continuous model only; 0/1, or -robust, = default kernel)")

		driver = flag.String("driver", "seq", "driver: seq|maspar")
		pe     = flag.Int("pe", 16, "PE mesh edge for the maspar driver")
		scheme = flag.String("scheme", "raster", "neighborhood read-out: raster|snake")
		uOut   = flag.String("u-out", "", "write U component as PGM")
		vOut   = flag.String("v-out", "", "write V component as PGM")
		svgOut = flag.String("svg-out", "", "write a wind-vector SVG over the input image")
		quiver = flag.Bool("quiver", true, "print an ASCII quiver of the flow")
		step   = flag.Int("quiver-step", 8, "quiver sampling stride")
		kmPx   = flag.Float64("km-per-pixel", 0, "ground sample distance; with -dt-seconds, report winds in m/s")
		dtSec  = flag.Float64("dt-seconds", 0, "frame interval in seconds")

		streamPaths   = flag.String("stream", "", "comma-separated frame paths (PGM/AREA): stream mode, tracking every consecutive pair")
		streamWorkers = flag.Int("stream-workers", 0, "pair-tracking workers in stream mode (0 = GOMAXPROCS)")
		streamCache   = flag.Int("stream-cache", 0, "prepared-frame LRU capacity in stream mode (0 = default)")
		verbose       = flag.Bool("v", false, "verbose: print the pipeline's full work counters in stream mode")
	)
	flag.Parse()
	params0 := core.Params{NS: *ns, NZS: *nzs, NZT: *nzt, NST: *nst, NSS: *nss}
	pyrOpt := core.PyramidOptions{Levels: *pyramid}
	if pyrOpt.Enabled() && params0.SemiFluid() {
		log.Fatal("-pyramid requires the continuous model (-nss 0)")
	}
	if *streamPaths != "" {
		geo := sequence.Geometry{KmPerPixel: *kmPx, SecondsPerDt: *dtSec}
		runStream(strings.Split(*streamPaths, ","), params0, core.Options{Robust: *robust, Pyramid: pyrOpt},
			*streamWorkers, *streamCache, geo, *verbose)
		return
	}
	if *i0Path == "" || *i1Path == "" {
		log.Fatal("-i0 and -i1 are required (or use -stream)")
	}
	i0, err := readImage(*i0Path)
	if err != nil {
		log.Fatal(err)
	}
	i1, err := readImage(*i1Path)
	if err != nil {
		log.Fatal(err)
	}
	pair := core.Monocular(i0, i1)
	if *z0Path != "" || *z1Path != "" {
		if *z0Path == "" || *z1Path == "" {
			log.Fatal("-z0 and -z1 must be given together")
		}
		z0, err := readImage(*z0Path)
		if err != nil {
			log.Fatal(err)
		}
		z1, err := readImage(*z1Path)
		if err != nil {
			log.Fatal(err)
		}
		pair = core.Pair{I0: i0, I1: i1, Z0: z0, Z1: z1}
	}

	params := params0
	opt := core.Options{Robust: *robust}

	var flow *grid.VectorField
	var epsField *grid.Grid
	switch *driver {
	case "seq":
		if pyrOpt.Enabled() {
			prep, err := core.PreparePyramid(pair, params, pyrOpt.Levels)
			if err != nil {
				log.Fatal(err)
			}
			res, st, err := core.TrackPyramidPreparedCtx(nil, prep, core.Options{Robust: *robust, Pyramid: pyrOpt}, 0)
			if err != nil {
				log.Fatal(err)
			}
			flow = res.Flow
			epsField = res.Err
			search := "summed-window search"
			if *robust {
				search = "block kernel (robust)"
			}
			fmt.Printf("%s: %d hypotheses over %d pixels\n", search, st.Hypotheses, st.Pixels)
			break
		}
		res, err := core.TrackSequential(pair, params, opt)
		if err != nil {
			log.Fatal(err)
		}
		flow = res.Flow
		epsField = res.Err
	case "maspar":
		if pyrOpt.Enabled() {
			log.Fatal("-pyramid is only supported by the seq driver")
		}
		fs := maspar.RasterReadout
		if *scheme == "snake" {
			fs = maspar.SnakeReadout
		} else if *scheme != "raster" {
			log.Fatalf("unknown scheme %q", *scheme)
		}
		m, err := maspar.New(maspar.ScaledConfig(*pe, *pe))
		if err != nil {
			log.Fatal(err)
		}
		res, err := core.TrackMasPar(m, pair, params, opt, fs)
		if err != nil {
			log.Fatal(err)
		}
		flow = res.Flow
		epsField = res.Err
		fmt.Printf("modeled MP-2 stage times (%dx%d PEs, %d layers, %d segment(s)):\n",
			*pe, *pe, res.Layers, res.Plan.Segments)
		fmt.Printf("  surface fit: %v\n  geometric variables: %v\n  semi-fluid mapping: %v\n  hypothesis matching: %v\n  total: %v\n",
			res.Stages.SurfaceFit, res.Stages.GeomVars, res.Stages.SemiMap,
			res.Stages.HypMatch, res.Stages.Total())
	default:
		log.Fatalf("unknown driver %q", *driver)
	}

	fmt.Printf("image %dx%d, model=%s, mean |d| = %.3f px\n",
		i0.W, i0.H, modelName(params), flow.MeanMagnitude())
	if rep, err := quality.Assess(flow, i0, i1, epsField); err == nil {
		fmt.Println("quality:", rep)
	}
	if *kmPx > 0 && *dtSec > 0 {
		geo := sequence.Geometry{KmPerPixel: *kmPx, SecondsPerDt: *dtSec}
		speed, _ := geo.WindField(flow)
		min, max := speed.MinMax()
		fmt.Printf("wind speed: %.1f–%.1f m/s (mean %.1f)\n", min, max, speed.Mean())
	}
	if *quiver {
		fmt.Print(eval.Quiver(flow, *step))
	}
	if *uOut != "" {
		if err := flow.U.WritePGMFile(*uOut); err != nil {
			log.Fatal(err)
		}
	}
	if *vOut != "" {
		if err := flow.V.WritePGMFile(*vOut); err != nil {
			log.Fatal(err)
		}
	}
	if *svgOut != "" {
		opt := viz.QuiverOptions{Step: *step, Background: i0}
		if err := viz.WriteQuiverSVGFile(*svgOut, flow, opt); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", *svgOut)
	}
}

// runStream tracks every consecutive pair of a monocular frame sequence
// through the streaming pipeline, printing one summary line per pair as
// it is delivered (in order) and the pipeline's work counters at the end.
// Verbose mode dumps the full stream.Stats — frames in, fits
// computed/reused/evicted, pairs tracked — so cache behavior on real
// sequences is observable without instrumenting the binary.
func runStream(paths []string, params core.Params, opt core.Options, workers, cache int, geo sequence.Geometry, verbose bool) {
	for i := range paths {
		paths[i] = strings.TrimSpace(paths[i])
	}
	src := stream.Paths(paths, readImage)
	cfg := stream.Config{Params: params, Options: opt, Workers: workers, CacheSize: cache}
	start := time.Now()
	st, err := stream.Stream(src, cfg, func(i int, res *core.Result) error {
		line := fmt.Sprintf("pair %03d→%03d: mean |d| = %.3f px", i, i+1, res.Flow.MeanMagnitude())
		if geo.KmPerPixel > 0 && geo.SecondsPerDt > 0 {
			speed, _ := geo.WindField(res.Flow)
			line += fmt.Sprintf(", mean wind %.1f m/s", speed.Mean())
		}
		fmt.Println(line)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	fmt.Printf("stream: %d frames, %d pairs, %d fits computed, %d reused, %.2f frames/s (%v total)\n",
		st.FramesIn, st.PairsTracked, st.FitsComputed, st.FitsReused,
		float64(st.FramesIn)/elapsed.Seconds(), elapsed.Round(time.Millisecond))
	if verbose {
		fmt.Printf("stream counters:\n")
		fmt.Printf("  frames in:       %d\n", st.FramesIn)
		fmt.Printf("  fits computed:   %d\n", st.FitsComputed)
		fmt.Printf("  fits reused:     %d\n", st.FitsReused)
		fmt.Printf("  fits evicted:    %d\n", st.Evictions)
		fmt.Printf("  pairs tracked:   %d\n", st.PairsTracked)
		fmt.Printf("  pairwise mode would fit %d frames; caching saved %d fits\n",
			2*st.PairsTracked, 2*st.PairsTracked-st.FitsComputed)
	}
}

// readImage loads a PGM or McIDAS AREA image, chosen by file extension.
func readImage(path string) (*grid.Grid, error) {
	if strings.HasSuffix(path, ".area") {
		_, g, err := ingest.ReadAreaFile(path)
		return g, err
	}
	return grid.ReadPGMFile(path)
}

func modelName(p core.Params) string {
	if p.SemiFluid() {
		return "semi-fluid"
	}
	return "continuous"
}
