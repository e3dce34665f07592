package maspar

import (
	"fmt"
	"strconv"
	"strings"
)

// MPL is a miniature interpreter for a subset of the MasPar Programming
// Language's data-parallel core — the language the paper's implementation
// was written in ([1]: "MasPar MP-2 Parallel Application Language (MPL)
// User Guide"). Programs operate on named plural registers under the
// ACU's activity-mask semantics, so kernels written as text execute on
// the simulated machine with full cost accounting.
//
// Grammar (one instruction per line; '#' starts a comment):
//
//	set   dst <imm>          broadcast an immediate to all active PEs
//	move  dst src            plural register copy
//	add   dst a b            dst = a + b     (plural)
//	sub   dst a b            dst = a − b
//	mul   dst a b            dst = a · b
//	div   dst a b            dst = a / b
//	adds  dst a <imm>        dst = a + imm
//	muls  dst a <imm>        dst = a · imm
//	xnet  dst src <dir>      dst = src value of the <dir> neighbor
//	                         (dir ∈ n ne e se s sw w nw)
//	if    reg <op> <imm>     push activity mask (op ∈ lt le gt ge eq ne)
//	else                     complement the innermost mask
//	endif                    pop the innermost mask
//
// Registers are created on first write. Reading an unwritten register is
// an error, as is unbalanced if/endif nesting.
type MPL struct {
	m    *Machine
	acu  *ACU
	regs map[string]*Plural
}

// NewMPL returns an interpreter bound to the machine.
//
//smavet:allow deadexport -- DESIGN.md §7 MPL-subset interpreter
func NewMPL(m *Machine) *MPL {
	return &MPL{m: m, acu: NewACU(m), regs: make(map[string]*Plural)}
}

// Reg returns a named register, creating it zero-filled if absent.
func (p *MPL) Reg(name string) *Plural {
	r, ok := p.regs[name]
	if !ok {
		r = NewPlural(p.m)
		p.regs[name] = r
	}
	return r
}

// SetReg installs externally prepared plural data under a name (e.g. an
// image layer loaded from the MPDA).
//
//smavet:allow deadexport -- DESIGN.md §7 MPL-subset interpreter
func (p *MPL) SetReg(name string, v *Plural) { p.regs[name] = v }

// Run executes an MPL program. On error the machine state reflects the
// instructions executed so far (as on the real machine).
//
//smavet:allow deadexport -- DESIGN.md §7 MPL-subset interpreter
func (p *MPL) Run(src string) error {
	lines := strings.Split(src, "\n")
	depth0 := p.acu.Depth()
	for ln, raw := range lines {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if err := p.exec(fields); err != nil {
			return fmt.Errorf("maspar: mpl line %d (%q): %w", ln+1, strings.TrimSpace(raw), err)
		}
	}
	if p.acu.Depth() != depth0 {
		return fmt.Errorf("maspar: mpl program left %d unclosed if block(s)", p.acu.Depth()-depth0)
	}
	return nil
}

func (p *MPL) exec(f []string) error {
	op := f[0]
	argc := map[string]int{
		"set": 2, "move": 2, "add": 3, "sub": 3, "mul": 3, "div": 3,
		"adds": 3, "muls": 3, "xnet": 3, "if": 3, "else": 0, "endif": 0,
	}
	want, ok := argc[op]
	if !ok {
		return fmt.Errorf("unknown op %q", op)
	}
	if len(f)-1 != want {
		return fmt.Errorf("op %q takes %d operands, got %d", op, want, len(f)-1)
	}
	src := func(name string) (*Plural, error) {
		r, ok := p.regs[name]
		if !ok {
			return nil, fmt.Errorf("read of unwritten register %q", name)
		}
		return r, nil
	}
	switch op {
	case "set":
		imm, err := strconv.ParseFloat(f[2], 32)
		if err != nil {
			return fmt.Errorf("bad immediate %q", f[2])
		}
		p.acu.SetScalar(p.Reg(f[1]), float32(imm))
	case "move":
		s, err := src(f[2])
		if err != nil {
			return err
		}
		p.acu.Move(p.Reg(f[1]), s)
	case "add", "sub", "mul", "div":
		a, err := src(f[2])
		if err != nil {
			return err
		}
		b, err := src(f[3])
		if err != nil {
			return err
		}
		dst := p.Reg(f[1])
		switch op {
		case "add":
			p.acu.Add(dst, a, b)
		case "sub":
			p.acu.Sub(dst, a, b)
		case "mul":
			p.acu.Mul(dst, a, b)
		case "div":
			p.acu.Div(dst, a, b)
		}
	case "adds", "muls":
		a, err := src(f[2])
		if err != nil {
			return err
		}
		imm, err := strconv.ParseFloat(f[3], 32)
		if err != nil {
			return fmt.Errorf("bad immediate %q", f[3])
		}
		if op == "adds" {
			p.acu.AddScalar(p.Reg(f[1]), a, float32(imm))
		} else {
			p.acu.MulScalar(p.Reg(f[1]), a, float32(imm))
		}
	case "xnet":
		s, err := src(f[2])
		if err != nil {
			return err
		}
		d, err := parseDir(f[3])
		if err != nil {
			return err
		}
		p.acu.ShiftInto(p.Reg(f[1]), s, d)
	case "if":
		r, err := src(f[1])
		if err != nil {
			return err
		}
		cmp, err := parseCmp(f[2])
		if err != nil {
			return err
		}
		imm, err := strconv.ParseFloat(f[3], 32)
		if err != nil {
			return fmt.Errorf("bad immediate %q", f[3])
		}
		iv := float32(imm)
		p.acu.If(r, func(v float32) bool { return cmp(v, iv) })
	case "else":
		if err := p.acu.Else(); err != nil {
			return fmt.Errorf("else without if")
		}
	case "endif":
		if err := p.acu.EndIf(); err != nil {
			return fmt.Errorf("endif without if")
		}
	}
	return nil
}

func parseDir(s string) (Direction, error) {
	dirs := map[string]Direction{
		"n": North, "ne": NorthEast, "e": East, "se": SouthEast,
		"s": South, "sw": SouthWest, "w": West, "nw": NorthWest,
	}
	d, ok := dirs[s]
	if !ok {
		return 0, fmt.Errorf("bad direction %q", s)
	}
	return d, nil
}

func parseCmp(s string) (func(a, b float32) bool, error) {
	switch s {
	case "lt":
		return func(a, b float32) bool { return a < b }, nil
	case "le":
		return func(a, b float32) bool { return a <= b }, nil
	case "gt":
		return func(a, b float32) bool { return a > b }, nil
	case "ge":
		return func(a, b float32) bool { return a >= b }, nil
	case "eq":
		return func(a, b float32) bool { return a == b }, nil
	case "ne":
		return func(a, b float32) bool { return a != b }, nil
	}
	return nil, fmt.Errorf("bad comparison %q", s)
}
