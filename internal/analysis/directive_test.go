package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseDirective builds a one-file Package (no type info — collectAllows
// only reads comments) from source.
func parseDirective(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "allow.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{Fset: fset, Files: []*ast.File{f}}
}

// TestAllowDirectiveEdgeCases pins the //smavet:allow grammar: multiple
// comma-separated checks, same-line and line-above placement, reason
// parsing, and the reasoned-beats-bare merge rule.
func TestAllowDirectiveEdgeCases(t *testing.T) {
	src := `package p

//smavet:allow alpha,beta -- shared reason for both checks
var a = 1

var b = 2 //smavet:allow gamma

//smavet:allow delta --
var c = 3

//smavet:allow epsilon
var d = 4 //smavet:allow epsilon -- the reasoned duplicate wins

//smavet:allow zeta--reason without surrounding spaces
var e = 5
`
	s := collectAllows(parseDirective(t, src))

	cases := []struct {
		line  int
		check string
		want  int
	}{
		{4, "alpha", allowReasoned},         // line-above, multi-check
		{4, "beta", allowReasoned},          // second check of the list
		{4, "gamma", allowNone},             // unlisted check unaffected
		{6, "gamma", allowBare},             // same-line, no reason
		{9, "delta", allowBare},             // "--" with empty reason is bare
		{12, "epsilon", allowReasoned},      // bare line-above + reasoned same-line
		{13, "epsilon", allowReasoned},      // a directive also covers the line below it
		{15, "zeta", allowReasoned},         // "--" splits without surrounding spaces
		{4, "alpha-is-not-here", allowNone}, // exact names, no substring matching
	}
	for _, c := range cases {
		if got := s.status("allow.go", c.line, c.check); got != c.want {
			t.Errorf("status(line %d, %q) = %d, want %d", c.line, c.check, got, c.want)
		}
	}
}

// TestReasonRequiredSuppression checks Run's handling of reason-less
// directives on reason-required checks: the ctxflow fixture carries one
// bare allow (bareAllowedRoot) that must be re-reported as an error with
// the how-to-fix suffix, and one reasoned allow (allowedRoot) that must
// suppress cleanly — the generic fixture test pins the exact lines.
func TestReasonRequiredSuppression(t *testing.T) {
	pkg := fixture(t, "ctxflow")
	findings := Run(DefaultConfig(), pkg, []*Analyzer{CtxFlow})
	bare := 0
	for _, f := range findings {
		if strings.Contains(f.Message, "reason-less suppression") {
			bare++
			if f.Severity != SevError {
				t.Errorf("re-reported bare allow has severity %q, want error", f.Severity)
			}
			if !strings.Contains(f.Message, "//smavet:allow ctxflow -- <why>") {
				t.Errorf("re-report does not say how to fix: %q", f.Message)
			}
		}
	}
	if bare != 1 {
		t.Fatalf("re-reported %d bare allows, want 1", bare)
	}
}

// TestDeadExportBareAllowReReported checks deadexport is reason-required:
// the fixture's bare directive on BareAllowed comes back as an error, and
// the reasoned one on Oracle suppresses.
func TestDeadExportBareAllowReReported(t *testing.T) {
	pkg := fixture(t, "deadexport")
	var bare []Finding
	for _, f := range Run(DefaultConfig(), pkg, []*Analyzer{DeadExport}) {
		if strings.Contains(f.Message, "Oracle") {
			t.Errorf("reasoned allow did not suppress: %v", f)
		}
		if strings.Contains(f.Message, "reason-less suppression") {
			bare = append(bare, f)
		}
	}
	if len(bare) != 1 || bare[0].Severity != SevError || !strings.Contains(bare[0].Message, "BareAllowed") {
		t.Fatalf("re-reported bare allows = %v, want one error on BareAllowed", bare)
	}
}
