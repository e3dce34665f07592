package core

import (
	"context"
	"fmt"
	"time"

	"sma/internal/maspar"
)

// StageTimes is the Table 2 / Table 4 breakdown: modeled MP-2 execution
// time of each subroutine of the parallel SMA implementation.
type StageTimes struct {
	SurfaceFit time.Duration // quadratic patch fitting (incl. fetches)
	GeomVars   time.Duration // normals, E, G, discriminant
	SemiMap    time.Duration // semi-fluid template mapping (0 for Fcont)
	HypMatch   time.Duration // hypothesis matching (dominant stage)
}

// Total sums the stages.
func (s StageTimes) Total() time.Duration {
	return s.SurfaceFit + s.GeomVars + s.SemiMap + s.HypMatch
}

// MasParResult bundles the motion field with the simulation's cost
// accounting.
type MasParResult struct {
	*Result
	Stages StageTimes
	Cost   maspar.Cost
	Plan   maspar.SegmentPlan
	Layers int
}

// ModelRun charges one SMA timestep's full operation inventory — plural
// instruction issues, X-net neighborhood fetches under the chosen read-out
// scheme, per-PE memory allocation and hypothesis-row segmentation — to
// the machine without executing the per-pixel arithmetic. It returns the
// per-stage modeled MP-2 times. TrackMasPar uses it for its accounting;
// the experiment harness calls it directly to model paper-scale runs
// (512×512 on the full 16,384-PE machine) that would be impractical to
// execute functionally.
func ModelRun(m *maspar.Machine, w, h int, p Params, fitPasses int, scheme maspar.FetchScheme) (StageTimes, maspar.SegmentPlan, error) {
	var st StageTimes
	if err := p.Validate(); err != nil {
		return st, maspar.SegmentPlan{}, err
	}
	mp, err := maspar.NewHierarchical(m, w, h)
	if err != nil {
		return st, maspar.SegmentPlan{}, err
	}
	layers := mp.Layers()
	oc := CountOps(p, fitPasses)

	// Resident plural data: the four input images and the fitted geometric
	// variables (15 image fields in this implementation).
	if err := m.Alloc("sma.fields", 15*4*layers); err != nil {
		return st, maspar.SegmentPlan{}, fmt.Errorf("core: resident fields do not fit PE memory: %w", err)
	}
	defer m.Free("sma.fields")

	plan := maspar.SegmentPlan{Z: p.SearchWidth(), Segments: 1}
	if p.SemiFluid() {
		sp := maspar.SegmentParams{NZS: p.NZS, NZT: p.NZT, NS: p.NS, Layers: layers, FloatSize: 4}
		// PlanSegments budgets the resident fields itself; release ours
		// while planning to avoid double counting.
		m.Free("sma.fields")
		var err error
		plan, err = maspar.PlanSegments(m, sp)
		if aerr := m.Alloc("sma.fields", 15*4*layers); aerr != nil {
			return st, plan, aerr
		}
		if err != nil {
			return st, plan, fmt.Errorf("core: %w", err)
		}
		if err := m.Alloc("sma.mappings", plan.Z*(2*p.NZS+1)*2*4*layers); err != nil {
			return st, plan, fmt.Errorf("core: segmented mapping store does not fit: %w", err)
		}
		defer m.Free("sma.mappings")
	}

	prev := m.Cost
	stage := func() time.Duration {
		cur := m.Cost
		delta := maspar.Cost{
			PluralFlops:   cur.PluralFlops - prev.PluralFlops,
			MemDirect:     cur.MemDirect - prev.MemDirect,
			MemIndirect:   cur.MemIndirect - prev.MemIndirect,
			XNetShifts:    cur.XNetShifts - prev.XNetShifts,
			RouterSends:   cur.RouterSends - prev.RouterSends,
			ScalarOps:     cur.ScalarOps - prev.ScalarOps,
			GaussianElims: cur.GaussianElims - prev.GaussianElims,
		}
		prev = cur
		return m.Cfg.Time(delta)
	}

	// --- Stage 1: surface fitting ---------------------------------------
	m.ChargeMem(int64(4 * layers)) // distribute the four input images
	fitFC, err := maspar.FetchCost(mp, p.NS, scheme)
	if err != nil {
		return st, plan, err
	}
	for pass := 0; pass < fitPasses; pass++ {
		m.Cost.Add(fitFC)
		for l := 0; l < layers; l++ {
			m.ChargeFlops(oc.SurfaceFlops)
			m.ChargeGauss6()
		}
	}
	st.SurfaceFit = stage()

	// --- Stage 2: geometric variables ------------------------------------
	for pass := 0; pass < fitPasses; pass++ {
		for l := 0; l < layers; l++ {
			m.ChargeFlops(oc.GeomFlops)
		}
	}
	st.GeomVars = stage()

	// --- Stage 3: semi-fluid template mapping -----------------------------
	if p.SemiFluid() {
		perSegment := oc.SemiMapFlops / int64(plan.Segments)
		fetchR := p.NZS + p.NSS + p.NST
		segFC, err := maspar.FetchCost(mp, fetchR, scheme)
		if err != nil {
			return st, plan, err
		}
		for seg := 0; seg < plan.Segments; seg++ {
			// Each segment re-fetches the discriminant neighborhoods it
			// needs, computes its hypothesis rows, and is discarded once
			// its error terms are produced (paper §4.1/§4.3).
			m.Cost.Add(segFC)
			for l := 0; l < layers; l++ {
				m.ChargeFlops(perSegment)
			}
		}
		st.SemiMap = stage()
	}

	// --- Stage 4: hypothesis matching -------------------------------------
	// Per segment: fetch the geometry fields needed across the template
	// radius (zx, zy, E, G plus the two stored template-mapping floats),
	// then accumulate and eliminate per hypothesis.
	const fetchFields = 6
	hypPerSegment := oc.HypFlops / int64(plan.Segments)
	gaussPerSegment := oc.HypGauss / int64(plan.Segments)
	hypFC, err := maspar.FetchCost(mp, p.NZT, scheme)
	if err != nil {
		return st, plan, err
	}
	for seg := 0; seg < plan.Segments; seg++ {
		fc := hypFC
		for i := 0; i < fetchFields; i++ {
			m.Cost.Add(fc)
		}
		for l := 0; l < layers; l++ {
			m.ChargeFlops(hypPerSegment)
			for g := int64(0); g < gaussPerSegment; g++ {
				m.ChargeGauss6()
			}
		}
	}
	st.HypMatch = stage()
	return st, plan, nil
}

// TrackMasPar executes one SMA timestep on the simulated MasPar MP-2: the
// images are folded onto the PE array with the 2-D hierarchical mapping,
// all pixels of each memory layer are tracked in parallel ("track all
// pixels in the mem-th memory layer in parallel and then repeat the
// process for each layer"), neighborhood traffic uses X-net mesh fetches
// under the chosen read-out scheme, and the template-mapping store is
// segmented by hypothesis rows when it exceeds PE memory.
//
// The returned motion field is bit-identical to TrackSequential — the
// equivalence the paper validates ("the parallel algorithm obtained the
// same result as the sequential implementation").
func TrackMasPar(m *maspar.Machine, pair Pair, p Params, opt Options, scheme maspar.FetchScheme) (*MasParResult, error) {
	prep, err := Prepare(pair, p)
	if err != nil {
		return nil, err
	}
	st, plan, err := ModelRun(m, prep.W, prep.H, p, FitPasses(pair, p), scheme)
	if err != nil {
		return nil, err
	}
	mp, err := maspar.NewHierarchical(m, prep.W, prep.H)
	if err != nil {
		return nil, err
	}
	layers := mp.Layers()

	// Functional execution. The machine schedule (memory layers, fetches,
	// segments) is charged by ModelRun above; the per-pixel results it
	// produces are those of the search kernel, which computes every pixel
	// independently of the order pixels are visited in, so the host runs
	// the block kernel on HostWorkers goroutines and matches the
	// sequential driver bit for bit at any worker count.
	sm := BuildSemiMap(prep)
	workers := opt.HostWorkers
	if workers < 1 {
		workers = 1
	}
	opt.Pyramid = PyramidOptions{} // the exact kernel, as the sequential driver runs it
	//smavet:allow errdiscard,ctxflow -- TrackMasPar takes no ctx: a deliberate uncancellable root, so the error is impossible
	res, _ := trackBlocks(context.Background(), prep, sm, opt, workers)
	return &MasParResult{Result: res, Stages: st, Cost: m.Cost, Plan: plan, Layers: layers}, nil
}
