package maspar

import "fmt"

// Direction identifies one of the eight X-net mesh neighbors (Fig. 1).
type Direction int

// The eight X-net directions. Shifting North means every PE receives the
// value held by its northern neighbor.
const (
	North Direction = iota
	NorthEast
	East
	SouthEast
	South
	SouthWest
	West
	NorthWest
)

// deltas holds the (dx, dy) PE-grid offset per Direction, in constant
// declaration order.
var deltas = [8][2]int{
	North:     {0, -1},
	NorthEast: {1, -1},
	East:      {1, 0},
	SouthEast: {1, 1},
	South:     {0, 1},
	SouthWest: {-1, 1},
	West:      {-1, 0},
	NorthWest: {-1, -1},
}

// Delta returns the (dx, dy) PE-grid offset of the neighbor in direction d
// with y growing southward (row-major PE indexing). A direction outside
// the eight constants is a programmer error and faults on the table index.
func (d Direction) Delta() (dx, dy int) {
	v := deltas[d]
	return v[0], v[1]
}

// String implements fmt.Stringer.
func (d Direction) String() string {
	names := [...]string{"N", "NE", "E", "SE", "S", "SW", "W", "NW"}
	if d < 0 || int(d) >= len(names) {
		return fmt.Sprintf("Direction(%d)", int(d))
	}
	return names[d]
}

// Plural is a plural 32-bit variable: one float32 register per PE.
type Plural struct {
	M *Machine
	V []float32
}

// NewPlural allocates a plural variable on m.
func NewPlural(m *Machine) *Plural {
	return &Plural{M: m, V: make([]float32, m.Cfg.NProc())}
}

// XNetShift returns a new plural variable where every PE holds the value
// its neighbor in direction d held in src — one 32-bit register-to-register
// X-net transfer, toroidal at the array edges. This is the machine's
// fastest communication primitive (aggregate 23 GB/s, 18× the router).
func (p *Plural) XNetShift(d Direction) *Plural {
	m := p.M
	nx, ny := m.Cfg.NXProc, m.Cfg.NYProc
	dx, dy := d.Delta()
	out := NewPlural(m)
	for py := 0; py < ny; py++ {
		sy := py + dy
		switch {
		case sy < 0:
			sy += ny
		case sy >= ny:
			sy -= ny
		}
		dstRow := py * nx
		srcRow := sy * nx
		for px := 0; px < nx; px++ {
			sx := px + dx
			switch {
			case sx < 0:
				sx += nx
			case sx >= nx:
				sx -= nx
			}
			out.V[dstRow+px] = p.V[srcRow+sx]
		}
	}
	m.ChargeXNet(1)
	return out
}

// RouterPermute returns a new plural variable with out[dst[pe]] = p[pe]:
// an arbitrary permutation through the global crossbar router. One 32-bit
// router send — 18× slower than an X-net shift, which is why the SMA
// implementation avoids it for neighborhood traffic.
//
//smavet:allow deadexport -- DESIGN.md §2 MP-2 simulator: global-router permutation sends
func (p *Plural) RouterPermute(dst []int) (*Plural, error) {
	m := p.M
	n := m.Cfg.NProc()
	if len(dst) != n {
		return nil, fmt.Errorf("maspar: permutation length %d != %d PEs", len(dst), n)
	}
	seen := make([]bool, n)
	out := NewPlural(m)
	for pe, d := range dst {
		if d < 0 || d >= n {
			return nil, fmt.Errorf("maspar: destination %d of PE %d out of range", d, pe)
		}
		if seen[d] {
			return nil, fmt.Errorf("maspar: destination %d receives twice (not a permutation)", d)
		}
		seen[d] = true
		out.V[d] = p.V[pe]
	}
	m.ChargeRouter(1)
	return out, nil
}
