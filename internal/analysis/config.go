package analysis

import "strings"

// Config carries the project-specific knobs of the smavet analyzers.
// DefaultConfig encodes this repository's conventions; cmd/smavet exposes
// flags that extend the name sets for out-of-tree use.
type Config struct {
	// KernelFuncs names the per-pixel kernel functions that must stay
	// allocation-free (hotalloc). The SMA inner loop runs one of these per
	// template pixel per hypothesis — ~10⁹ calls at paper scale — so a
	// single make/append inside them dominates the host profile.
	KernelFuncs map[string]bool

	// NarrowSinks names the functions and methods whose arguments are
	// approved float64→float32 narrowing points (floatnarrow). These are
	// the storage boundaries where the pipeline deliberately drops to the
	// MP-2's 32-bit plural floats; narrowing anywhere else risks doing
	// intermediate arithmetic at reduced precision.
	NarrowSinks map[string]bool

	// MutatorNames names the methods that mutate a grid or vector field
	// in place (goroutinecapture). A call to one of these on shared state
	// from inside a `go func` literal must be indexed by a per-worker
	// variable or the workers race.
	MutatorNames map[string]bool

	// GridPkgSuffix identifies the package whose types goroutinecapture
	// treats as shared pixel state.
	GridPkgSuffix string

	// DetPkgSuffixes are the import-path suffixes of the deterministic
	// kernel packages (detrange). Inside them, wall-clock reads
	// (time.Now) and any unseeded randomness are errors: the paper's
	// "parallel == sequential" validation and the golden fixtures both
	// require that every computed value be a pure function of the
	// inputs, never of the schedule or the clock.
	DetPkgSuffixes []string

	// CtxStructAllow names the struct types approved to store a
	// context.Context (ctxflow). Storing a ctx normally detaches it from
	// the call chain and defeats cancellation; the approved types are
	// deliberate roots (e.g. server.Pool's drain-escalation context,
	// which must outlive every request by design).
	CtxStructAllow map[string]bool

	// ReasonRequired lists the checks whose //smavet:allow directives
	// must carry a "-- reason". A bare allow for these checks does not
	// suppress; the finding is re-reported until the why is written
	// down. The concurrency & determinism suite starts reason-required;
	// the PR-1 checks keep their historical directives grandfathered.
	ReasonRequired map[string]bool

	// Refs is the tree-wide reference index deadexport reads. The smavet
	// driver builds it once with IndexRefs from every package of the
	// module, so a subset pattern gets the verdicts ./... gets; nil
	// indexes the analyzed package alone.
	Refs *RefIndex
}

// DefaultConfig returns the smavet configuration for this repository.
func DefaultConfig() *Config {
	return &Config{
		KernelFuncs: set(
			// core tracker inner loop
			"accumulateA", "accumulateB",
			"residualSum", "residualSumBounded", "rowResiduals",
			"solveMotion", "factorMotion", "solveFactored",
			"symmetrize", "robustRefine",
			// block kernel — block.go
			"searchTile", "prepareBlock", "rhsPass", "rhs", "buildBTerms", "scoreHyp",
			"bWalk", "bDirect", "residualWalk", "fillBuf", "storeBlock", "fillPadded",
			// block kernel's screen — screen.go
			"prepareScreen", "screenRow", "screenPrune", "lowerBound", "gammaN",
			// block kernel's summed mode — summed.go
			"invertSummed",
			"slide", "aPlaneValues", "summedA", "invertMotion", "inverse", "packInverse",
			"summedEps", "summedTheta",
			// semi-fluid map — semimap.go
			"mapRow", "addRow", "clampedRow", "sumPatches", "argminRow",
			"CropInto",
			// reference kernel (same hot-path discipline)
			"scoreReference", "trackPixelReference",
			// surface fit per-pixel path
			"Fit",
			// linear algebra per-elimination path
			"Solve6", "AccumulateNormal",
			"Factor6", "SolveFactored6",
		),
		NarrowSinks: set(
			"Set", "Fill", "SetScalar", "AddScalar", "MulScalar",
		),
		MutatorNames: set(
			"Set", "Fill", "Apply", "ApplyXY", "AddScaled",
		),
		GridPkgSuffix: "internal/grid",
		DetPkgSuffixes: []string{
			"internal/core", "internal/la", "internal/grid",
			"internal/surface", "internal/flow", "internal/maspar",
		},
		CtxStructAllow: set(
			// Pool.forceCtx is the shutdown drain-escalation root: it must
			// outlive every request and is cancelled only by Shutdown.
			"Pool",
		),
		ReasonRequired: set(
			"lockscope", "ctxflow", "atomicmix", "detrange", "goleak",
			"deadexport",
		),
	}
}

// detPkg reports whether pkgPath is one of the deterministic kernel
// packages.
func (c *Config) detPkg(pkgPath string) bool {
	for _, suf := range c.DetPkgSuffixes {
		if strings.HasSuffix(pkgPath, suf) {
			return true
		}
	}
	return false
}

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}
