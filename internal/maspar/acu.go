package maspar

import (
	"errors"
	"fmt"
)

// ACU models the Array Control Unit's execution semantics: a single
// instruction stream broadcast to every PE, with data-dependent control
// flow realized through an activity-mask stack ("plural if" in MPL).
// Masked-off PEs sit out an instruction but the instruction still takes a
// full issue slot — the SIMD branch-serialization cost: an if/else
// construct costs the sum of both branches for every PE.
type ACU struct {
	M     *Machine
	stack [][]bool
}

// NewACU returns an ACU for the machine with all PEs active.
func NewACU(m *Machine) *ACU {
	all := make([]bool, m.Cfg.NProc())
	for i := range all {
		all[i] = true
	}
	return &ACU{M: m, stack: [][]bool{all}}
}

// Active returns the current activity mask (do not mutate).
func (a *ACU) Active() []bool { return a.stack[len(a.stack)-1] }

// ActiveCount reports how many PEs are currently enabled.
func (a *ACU) ActiveCount() int {
	n := 0
	for _, v := range a.Active() {
		if v {
			n++
		}
	}
	return n
}

// If pushes a refined activity mask: PEs stay active only where they are
// currently active and pred holds. One plural compare instruction is
// charged.
func (a *ACU) If(pred *Plural, test func(v float32) bool) {
	cur := a.Active()
	next := make([]bool, len(cur))
	for pe, act := range cur {
		next[pe] = act && test(pred.V[pe])
	}
	a.stack = append(a.stack, next)
	a.M.ChargeFlops(1)
}

// Else complements the innermost mask against its parent. No instruction
// is charged: the ACU just flips the stored activity bits. An error is
// returned when no plural if block is open.
func (a *ACU) Else() error {
	if len(a.stack) < 2 {
		return errors.New("maspar: Else without If")
	}
	parent := a.stack[len(a.stack)-2]
	cur := a.stack[len(a.stack)-1]
	next := make([]bool, len(cur))
	for pe := range cur {
		next[pe] = parent[pe] && !cur[pe]
	}
	a.stack[len(a.stack)-1] = next
	return nil
}

// EndIf pops the innermost activity mask. An error is returned when no
// plural if block is open.
func (a *ACU) EndIf() error {
	if len(a.stack) < 2 {
		return errors.New("maspar: EndIf without If")
	}
	a.stack = a.stack[:len(a.stack)-1]
	return nil
}

// binaryOp applies f where active; one plural flop instruction regardless
// of how many PEs participate (SIMD time is per instruction, not per
// active PE).
func (a *ACU) binaryOp(dst, x, y *Plural, f func(x, y float32) float32) {
	mask := a.Active()
	for pe, act := range mask {
		if act {
			dst.V[pe] = f(x.V[pe], y.V[pe])
		}
	}
	a.M.ChargeFlops(1)
}

// Add sets dst = x + y on active PEs.
func (a *ACU) Add(dst, x, y *Plural) {
	a.binaryOp(dst, x, y, func(p, q float32) float32 { return p + q })
}

// Sub sets dst = x − y on active PEs.
func (a *ACU) Sub(dst, x, y *Plural) {
	a.binaryOp(dst, x, y, func(p, q float32) float32 { return p - q })
}

// Mul sets dst = x · y on active PEs.
func (a *ACU) Mul(dst, x, y *Plural) {
	a.binaryOp(dst, x, y, func(p, q float32) float32 { return p * q })
}

// SetScalar broadcasts an immediate to dst on active PEs only.
func (a *ACU) SetScalar(dst *Plural, s float32) {
	mask := a.Active()
	for pe, act := range mask {
		if act {
			dst.V[pe] = s
		}
	}
	a.M.ChargeMem(1)
	a.M.Cost.ScalarOps++
}

// Div sets dst = x / y on active PEs.
func (a *ACU) Div(dst, x, y *Plural) {
	a.binaryOp(dst, x, y, func(p, q float32) float32 { return p / q })
}

// AddScalar sets dst = x + s on active PEs (one broadcast + add).
func (a *ACU) AddScalar(dst, x *Plural, s float32) {
	mask := a.Active()
	for pe, act := range mask {
		if act {
			dst.V[pe] = x.V[pe] + s
		}
	}
	a.M.ChargeFlops(1)
	a.M.Cost.ScalarOps++
}

// MulScalar sets dst = x · s on active PEs (one broadcast + multiply).
func (a *ACU) MulScalar(dst, x *Plural, s float32) {
	mask := a.Active()
	for pe, act := range mask {
		if act {
			dst.V[pe] = x.V[pe] * s
		}
	}
	a.M.ChargeFlops(1)
	a.M.Cost.ScalarOps++
}

// Move copies src to dst on active PEs (one plural register move).
func (a *ACU) Move(dst, src *Plural) {
	mask := a.Active()
	for pe, act := range mask {
		if act {
			dst.V[pe] = src.V[pe]
		}
	}
	a.M.ChargeMem(1)
}

// ShiftInto writes the d-neighbor's src value into dst on active PEs —
// the masked form of XNetShift (the transfer happens on all PEs; masked
// PEs simply discard the incoming register).
func (a *ACU) ShiftInto(dst, src *Plural, d Direction) {
	sh := src.XNetShift(d) // charges the X-net instruction
	mask := a.Active()
	for pe, act := range mask {
		if act {
			dst.V[pe] = sh.V[pe]
		}
	}
	a.M.ChargeMem(1)
}

// Depth reports the activity-mask nesting depth (1 = no plural if open).
func (a *ACU) Depth() int { return len(a.stack) }

// String implements fmt.Stringer for debugging.
func (a *ACU) String() string {
	return fmt.Sprintf("ACU{depth=%d, active=%d/%d}", a.Depth(), a.ActiveCount(), a.M.Cfg.NProc())
}
