// Package analysis is the smavet static-analysis suite: project-specific
// checks for the SMA pipeline, built on go/ast and go/types only.
//
// The checks encode invariants the paper's algorithm and this
// reproduction's conventions depend on but the compiler cannot enforce:
// data-parallel goroutines must key shared writes by a per-worker variable
// (goroutinecapture), float64 accumulation may narrow to float32 only at
// approved storage sinks (floatnarrow), library packages must return
// errors rather than panic (panicfree), per-pixel kernels must not
// allocate (hotalloc), and errors must not be silently discarded or
// wrapped unwrappably (errdiscard).
//
// The concurrency & determinism suite extends that floor to the paper's
// schedule-independence contract: locks must not be copied, leaked past a
// return, or held across blocking operations (lockscope); a received
// context.Context must be threaded, not re-minted or stored (ctxflow);
// a field touched by sync/atomic anywhere must be atomic everywhere
// (atomicmix); results must not depend on map iteration order, unseeded
// randomness or wall-clock reads in kernel packages (detrange); and every
// goroutine needs a join — WaitGroup pairing or a drained channel
// (goleak).
//
// deadexport keeps production code that only tests reach out of
// internal/: an exported function or method needs a reference from a
// non-test file outside its own body, in any package of the module,
// unless it is a method that satisfies an interface. References are
// indexed once from every package (Config.Refs), so a subset run keeps
// the tree-wide verdict, and the baseline holds no deadexport entry.
//
// A finding may be suppressed at the site with a directive comment on the
// same line or the line directly above:
//
//	//smavet:allow <check>[,<check>...] [-- reason]
//
// Checks listed in Config.ReasonRequired reject directives without a
// "-- reason": the suppression is re-reported as an error until the why
// is written down.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding severities. Errors always gate; warnings gate only when they
// are not recorded in the committed baseline (the ratchet: existing debt
// is frozen, new debt fails).
const (
	SevError = "error"
	SevWarn  = "warn"
)

// Finding is one analyzer diagnostic.
type Finding struct {
	Pos      token.Position
	Check    string
	Severity string
	Message  string
}

// String renders the finding in the file:line: [check] message form the
// smavet driver prints.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Check, f.Message)
}

// Analyzer is one smavet check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one package through one analyzer and collects findings.
type Pass struct {
	Cfg      *Config
	Pkg      *Package
	check    string
	findings []Finding
}

// Reportf records an error-severity finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.reportSev(SevError, pos, format, args...)
}

// Warnf records a warn-severity finding at pos: real debt, but eligible
// for the baseline ratchet instead of failing the build outright.
func (p *Pass) Warnf(pos token.Pos, format string, args ...any) {
	p.reportSev(SevWarn, pos, format, args...)
}

func (p *Pass) reportSev(sev string, pos token.Pos, format string, args ...any) {
	p.findings = append(p.findings, Finding{
		Pos:      p.Pkg.Fset.Position(pos),
		Check:    p.check,
		Severity: sev,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns every analyzer in the suite.
func All() []*Analyzer {
	return []*Analyzer{
		GoroutineCapture,
		FloatNarrow,
		PanicFree,
		HotAlloc,
		ErrDiscard,
		LockScope,
		CtxFlow,
		AtomicMix,
		DetRange,
		GoLeak,
		DeadExport,
	}
}

// sortFindings orders findings deterministically: file, line, column,
// check, message. The same order falls out of any analysis schedule,
// which is what lets the driver run packages in parallel.
func sortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}

// Run applies the analyzers to one loaded package and returns the
// findings that survive //smavet:allow suppression, sorted by position.
// A reason-less allow directive does not suppress checks in
// Config.ReasonRequired; the finding comes back as an error telling the
// author to write the reason down.
func Run(cfg *Config, pkg *Package, analyzers []*Analyzer) []Finding {
	allow := collectAllows(pkg)
	var out []Finding
	for _, a := range analyzers {
		pass := &Pass{Cfg: cfg, Pkg: pkg, check: a.Name}
		a.Run(pass)
		for _, f := range pass.findings {
			switch allow.status(f.Pos.Filename, f.Pos.Line, f.Check) {
			case allowReasoned:
				continue
			case allowBare:
				if !cfg.ReasonRequired[f.Check] {
					continue
				}
				f.Severity = SevError
				f.Message += fmt.Sprintf(" (reason-less suppression: write //smavet:allow %s -- <why>)", f.Check)
			}
			out = append(out, f)
		}
	}
	sortFindings(out)
	return out
}

// Allow-directive match states, strongest first.
const (
	allowNone = iota
	allowBare
	allowReasoned
)

// allowSet records //smavet:allow directives: file → line → check name →
// whether the directive carried a "-- reason".
type allowSet map[string]map[int]map[string]bool

// status reports how a finding of check at file:line is suppressed by a
// directive on the same line or the line directly above. When both lines
// carry a directive for the check, a reasoned one wins.
func (s allowSet) status(file string, line int, check string) int {
	lines := s[file]
	if lines == nil {
		return allowNone
	}
	st := allowNone
	for _, l := range []int{line, line - 1} {
		if reasoned, ok := lines[l][check]; ok {
			if reasoned {
				return allowReasoned
			}
			st = allowBare
		}
	}
	return st
}

func collectAllows(pkg *Package) allowSet {
	s := allowSet{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, "smavet:allow") {
					continue
				}
				text = strings.TrimPrefix(text, "smavet:allow")
				reasoned := false
				if cut := strings.Index(text, "--"); cut >= 0 {
					reasoned = strings.TrimSpace(text[cut+2:]) != ""
					text = text[:cut]
				}
				pos := pkg.Fset.Position(c.Pos())
				lines := s[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					s[pos.Filename] = lines
				}
				checks := lines[pos.Line]
				if checks == nil {
					checks = map[string]bool{}
					lines[pos.Line] = checks
				}
				for _, name := range strings.Split(text, ",") {
					if name = strings.TrimSpace(name); name != "" {
						// A reasoned directive is never downgraded by a
						// bare duplicate.
						checks[name] = checks[name] || reasoned
					}
				}
			}
		}
	}
	return s
}

// funcDecls walks every function declaration of the package, handing the
// visitor the declaration (nil for file-scope initializers is never
// produced; package-level var initializers are visited separately by the
// analyzers that care).
func funcDecls(pkg *Package, visit func(*ast.FuncDecl)) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				visit(fd)
			}
		}
	}
}
