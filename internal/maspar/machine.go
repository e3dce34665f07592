// Package maspar is a functional simulator and analytic cost model of the
// MasPar MP-2 massively parallel SIMD computer the paper targets: a
// nyproc×nxproc array of Processor Elements (PEs) under a single Array
// Control Unit, an 8-way toroidal X-net nearest-neighbor mesh, a global
// (multistage crossbar) router, and a fixed per-PE data memory.
//
// The simulator plays two roles:
//
//  1. Functional: plural (per-PE) data, real X-net shifts, router
//     permutations, the paper's 2-D hierarchical data folding, and both
//     neighborhood read-out schemes (snake and raster-scan) move actual
//     data, so SIMD kernels can be executed and verified bit-for-bit
//     against sequential code.
//  2. Analytic: every operation is charged to a Cost ledger; Config turns
//     the ledger into modeled MP-2 seconds using the machine parameters
//     the paper publishes (12.5 MHz clock, 23.0 GB/s aggregate X-net,
//     1.3 GB/s router, 22.4/10.6 GB/s direct/indirect memory, 2.4 GFlops
//     sustained double precision).
package maspar

import (
	"fmt"
	"sort"
	"time"
)

// Config describes an MP-2 configuration. The zero value is not valid; use
// DefaultConfig (the NASA Goddard machine of the paper) or fill all fields.
type Config struct {
	NYProc, NXProc int // PE array dimensions (Goddard: 128×128)
	MemPerPE       int // bytes of PE data memory (Goddard: 64 KB)

	ClockHz        float64 // PE clock (12.5 MHz → 80 ns cycle)
	SustainedFlops float64 // aggregate sustained flop/s: 60% of the 6.3
	// GFlops single-precision peak per the paper ([5]); the double-
	// precision figure is 2.4e9

	XNetBW        float64 // aggregate X-net bandwidth, bytes/s (23.0e9)
	RouterBW      float64 // aggregate router bandwidth, bytes/s (1.3e9)
	MemDirectBW   float64 // aggregate direct plural memory bandwidth (22.4e9)
	MemIndirectBW float64 // aggregate indirect plural memory bandwidth (10.6e9)
}

// DefaultConfig returns the maximally configured NASA Goddard MP-2 the
// paper used: 16,384 PEs in a 128×128 mesh with 64 KB per PE.
func DefaultConfig() Config {
	return Config{
		NYProc:         128,
		NXProc:         128,
		MemPerPE:       64 * 1024,
		ClockHz:        12.5e6,
		SustainedFlops: 0.60 * 6.3e9,
		XNetBW:         23.0e9,
		RouterBW:       1.3e9,
		MemDirectBW:    22.4e9,
		MemIndirectBW:  10.6e9,
	}
}

// ScaledConfig returns a reduced PE array with otherwise Goddard-like
// per-PE characteristics, for tests and scaled experiments. Aggregate
// bandwidths and flop rates scale with the PE count so per-PE behavior is
// preserved.
func ScaledConfig(nyproc, nxproc int) Config {
	c := DefaultConfig()
	f := float64(nyproc*nxproc) / float64(c.NYProc*c.NXProc)
	c.NYProc, c.NXProc = nyproc, nxproc
	c.SustainedFlops *= f
	c.XNetBW *= f
	c.RouterBW *= f
	c.MemDirectBW *= f
	c.MemIndirectBW *= f
	return c
}

// NProc returns the total PE count.
func (c Config) NProc() int { return c.NYProc * c.NXProc }

// Cost is the operation ledger of a simulated run. All counts are
// per-instruction: an entry of 1 means one SIMD instruction issued to the
// whole PE array (the SIMD execution model means time does not depend on
// how many PEs are active — masked-off PEs still spend the cycle).
type Cost struct {
	PluralFlops   int64 // plural floating-point instructions
	MemDirect     int64 // direct plural 32-bit loads/stores
	MemIndirect   int64 // indirect (pointer) plural 32-bit loads/stores
	XNetShifts    int64 // 32-bit register-to-register nearest-neighbor moves
	RouterSends   int64 // 32-bit global-router sends
	ScalarOps     int64 // ACU front-end operations
	GaussianElims int64 // informational: 6×6 eliminations issued (flops included above)
}

// Add accumulates o into c.
func (c *Cost) Add(o Cost) {
	c.PluralFlops += o.PluralFlops
	c.MemDirect += o.MemDirect
	c.MemIndirect += o.MemIndirect
	c.XNetShifts += o.XNetShifts
	c.RouterSends += o.RouterSends
	c.ScalarOps += o.ScalarOps
	c.GaussianElims += o.GaussianElims
}

// Gauss6Flops is the flop count of one 6×6 Gaussian elimination with back
// substitution (2n³/3 forward + n² backward, n = 6).
const Gauss6Flops = 180

// Machine is a simulated MP-2 instance: a Config, a cost ledger and a
// per-PE memory allocator.
type Machine struct {
	Cfg   Config
	Cost  Cost
	alloc map[string]int // named per-PE allocations, bytes
	used  int
}

// New returns a Machine for the given configuration. An error is returned
// when the PE array dimensions are not positive.
func New(cfg Config) (*Machine, error) {
	if cfg.NYProc <= 0 || cfg.NXProc <= 0 {
		return nil, fmt.Errorf("maspar: invalid PE array %dx%d", cfg.NYProc, cfg.NXProc)
	}
	return &Machine{Cfg: cfg, alloc: make(map[string]int)}, nil
}

// MustNew is the panicking variant of New for configurations known to be
// valid at the call site (DefaultConfig, ScaledConfig with literal
// dimensions) — tests, examples and benchmark setup.
//
//smavet:allow deadexport -- shared setup of bench_test.go and the maspar, flow and core tests
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Alloc reserves bytesPerPE of PE memory under a name, returning an error
// when the 64 KB-per-PE budget would be exceeded — the constraint that
// drives the paper's template-mapping segmentation scheme.
func (m *Machine) Alloc(name string, bytesPerPE int) error {
	if bytesPerPE < 0 {
		return fmt.Errorf("maspar: negative allocation %q", name)
	}
	if old, ok := m.alloc[name]; ok {
		m.used -= old
	}
	if m.used+bytesPerPE > m.Cfg.MemPerPE {
		m.used += m.alloc[name] // restore
		return fmt.Errorf("maspar: allocating %q (%d B/PE) exceeds PE memory: %d + %d > %d",
			name, bytesPerPE, m.used, bytesPerPE, m.Cfg.MemPerPE)
	}
	m.alloc[name] = bytesPerPE
	m.used += bytesPerPE
	return nil
}

// Free releases a named allocation. Freeing an unknown name is a no-op.
func (m *Machine) Free(name string) {
	if b, ok := m.alloc[name]; ok {
		m.used -= b
		delete(m.alloc, name)
	}
}

// MemUsed reports the currently allocated bytes per PE.
func (m *Machine) MemUsed() int { return m.used }

// Time converts a cost ledger into modeled MP-2 wall time under this
// machine's configuration.
func (c Config) Time(cost Cost) time.Duration {
	n := float64(c.NProc())
	secs := float64(cost.PluralFlops) * n / c.SustainedFlops
	secs += float64(cost.MemDirect) * 4 * n / c.MemDirectBW
	secs += float64(cost.MemIndirect) * 4 * n / c.MemIndirectBW
	secs += float64(cost.XNetShifts) * 4 * n / c.XNetBW
	secs += float64(cost.RouterSends) * 4 * n / c.RouterBW
	secs += float64(cost.ScalarOps) / c.ClockHz
	return time.Duration(secs * float64(time.Second))
}

// ChargeFlops records n plural floating-point instructions.
func (m *Machine) ChargeFlops(n int64) { m.Cost.PluralFlops += n }

// ChargeMem records n direct plural memory operations.
func (m *Machine) ChargeMem(n int64) { m.Cost.MemDirect += n }

// ChargeMemIndirect records n indirect plural memory operations.
//
//smavet:allow deadexport -- DESIGN.md §2 MP-2 cost model: indirect memory bandwidth
func (m *Machine) ChargeMemIndirect(n int64) { m.Cost.MemIndirect += n }

// ChargeXNet records n 32-bit X-net shifts.
func (m *Machine) ChargeXNet(n int64) { m.Cost.XNetShifts += n }

// ChargeRouter records n 32-bit router sends.
func (m *Machine) ChargeRouter(n int64) { m.Cost.RouterSends += n }

// ChargeGauss6 records one 6×6 Gaussian elimination: its flops plus the
// informational elimination counter the paper reports ("169
// Gaussian-eliminations per pixel").
func (m *Machine) ChargeGauss6() {
	m.Cost.PluralFlops += Gauss6Flops
	m.Cost.GaussianElims++
}

// Breakdown reports each resource's share of the modeled run time for a
// ledger — flops vs memory vs X-net vs router — the occupancy view behind
// the paper's design arguments (compute-bound hypothesis matching, mesh
// traffic kept off the router).
//
//smavet:allow deadexport -- staged deletion with TestBreakdownSharesSumToOne and TestBreakdownComputeBoundFrederic (ROADMAP item 9)
func (c Config) Breakdown(cost Cost) map[string]float64 {
	n := float64(c.NProc())
	parts := map[string]float64{
		"flops":  float64(cost.PluralFlops) * n / c.SustainedFlops,
		"mem":    float64(cost.MemDirect)*4*n/c.MemDirectBW + float64(cost.MemIndirect)*4*n/c.MemIndirectBW,
		"xnet":   float64(cost.XNetShifts) * 4 * n / c.XNetBW,
		"router": float64(cost.RouterSends) * 4 * n / c.RouterBW,
		"acu":    float64(cost.ScalarOps) / c.ClockHz,
	}
	// Sum in sorted key order: float addition is order-dependent in the
	// last ulp, and the shares must not vary with map iteration order.
	keys := make([]string, 0, len(parts))
	for k := range parts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var total float64
	for _, k := range keys {
		total += parts[k]
	}
	if total == 0 {
		return map[string]float64{}
	}
	for k, v := range parts {
		parts[k] = v / total
	}
	return parts
}

// String renders a ledger compactly.
func (c Cost) String() string {
	return fmt.Sprintf("flops=%d mem=%d/%d xnet=%d router=%d acu=%d gauss=%d",
		c.PluralFlops, c.MemDirect, c.MemIndirect, c.XNetShifts, c.RouterSends,
		c.ScalarOps, c.GaussianElims)
}
