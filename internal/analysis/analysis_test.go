package analysis

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// sharedLoader caches type-checked packages (including the standard
// library, which the source importer loads once) across all subtests.
var (
	loaderOnce sync.Once
	loaderVal  *Loader
	loaderErr  error
)

func fixture(t *testing.T, name string) *Package {
	t.Helper()
	loaderOnce.Do(func() {
		loaderVal, loaderErr = NewLoader(filepath.Join("..", ".."))
	})
	if loaderErr != nil {
		t.Fatal(loaderErr)
	}
	pkg, err := loaderVal.LoadDir(filepath.Join("internal", "analysis", "testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// wantLines scans the fixture directory for "// want <check>" markers and
// returns the expected finding sites as "file.go:line" strings.
func wantLines(t *testing.T, dir, check string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			if strings.Contains(sc.Text(), "// want "+check) {
				want = append(want, fmt.Sprintf("%s:%d", e.Name(), line))
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	sort.Strings(want)
	return want
}

// TestAnalyzersAgainstFixtures runs each analyzer on its fixture package
// and checks the findings exactly match the // want markers: every
// marked line flagged (positives), no unmarked line flagged (negatives).
func TestAnalyzersAgainstFixtures(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			pkg := fixture(t, a.Name)
			var got []string
			for _, f := range Run(DefaultConfig(), pkg, []*Analyzer{a}) {
				if f.Check != a.Name {
					t.Errorf("finding from unexpected check %q", f.Check)
				}
				got = append(got, fmt.Sprintf("%s:%d", filepath.Base(f.Pos.Filename), f.Pos.Line))
			}
			sort.Strings(got)
			want := wantLines(t, pkg.Dir, a.Name)
			if len(want) == 0 {
				t.Fatalf("fixture for %s has no positive cases", a.Name)
			}
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("findings mismatch\n got: %v\nwant: %v", got, want)
			}
		})
	}
}

// TestSuppressionDirectives verifies //smavet:allow works on the same
// line and the preceding line: the panicfree fixture contains two
// suppressed panics that must stay unflagged (covered by the exact-match
// test above) and Run must still flag them when suppression context is
// absent — i.e. the directives are what hides them, not the analyzer.
func TestSuppressionDirectives(t *testing.T) {
	pkg := fixture(t, "panicfree")
	pass := &Pass{Cfg: DefaultConfig(), Pkg: pkg, check: "panicfree"}
	PanicFree.Run(pass)
	suppressed := 0
	allow := collectAllows(pkg)
	for _, f := range pass.findings {
		if allow.status(f.Pos.Filename, f.Pos.Line, f.Check) != allowNone {
			suppressed++
		}
	}
	if suppressed != 2 {
		t.Fatalf("suppressed %d findings, want 2 (previous-line and same-line directives)", suppressed)
	}
}

// TestFindingString pins the file:line: [check] message output format the
// Makefile and CI grep for.
func TestFindingString(t *testing.T) {
	pkg := fixture(t, "hotalloc")
	fs := Run(DefaultConfig(), pkg, []*Analyzer{HotAlloc})
	if len(fs) == 0 {
		t.Fatal("no findings")
	}
	s := fs[0].String()
	if !strings.Contains(s, "hotalloc.go:") || !strings.Contains(s, "[hotalloc]") {
		t.Fatalf("unexpected format %q", s)
	}
}

// TestLoaderResolvesModuleImports checks the loader type-checks a
// fixture that imports a module-internal package (sma/internal/grid)
// without any go/packages machinery.
func TestLoaderResolvesModuleImports(t *testing.T) {
	pkg := fixture(t, "goroutinecapture")
	found := false
	for _, imp := range pkg.Types.Imports() {
		if imp.Path() == "sma/internal/grid" {
			found = true
		}
	}
	if !found {
		t.Fatal("sma/internal/grid not among fixture imports")
	}
}

// TestLoaderHonorsBuildConstraints loads the buildtags fixture, which
// holds a mutually exclusive build-tagged pair (variant_default.go
// !smavetcustom, variant_custom.go smavetcustom). Without constraint
// evaluation both files type-check together and variant is a duplicate
// declaration.
func TestLoaderHonorsBuildConstraints(t *testing.T) {
	pkg := fixture(t, "buildtags")
	if obj := pkg.Types.Scope().Lookup("variant"); obj == nil {
		t.Fatal("variant not declared in loaded package")
	}
	for _, f := range pkg.Files {
		name := filepath.Base(loaderVal.Fset.Position(f.Pos()).Filename)
		if name == "variant_custom.go" {
			t.Fatal("custom-tagged file loaded under default build config")
		}
	}
}

// TestBuildTagDefaults pins the tag evaluation: host platform and release
// tags satisfied, custom tags not.
func TestBuildTagDefaults(t *testing.T) {
	for _, tag := range []string{"gc", "go1", "go1.21"} {
		if !defaultBuildTag(tag) {
			t.Errorf("tag %q should be satisfied", tag)
		}
	}
	for _, tag := range []string{"smavetcustom", "gofuzz", "go2something", "tinygo"} {
		if defaultBuildTag(tag) {
			t.Errorf("tag %q should not be satisfied", tag)
		}
	}
}

// TestLoaderRejectsOutsideModule pins the module boundary.
func TestLoaderRejectsOutsideModule(t *testing.T) {
	loaderOnce.Do(func() {
		loaderVal, loaderErr = NewLoader(filepath.Join("..", ".."))
	})
	if loaderErr != nil {
		t.Fatal(loaderErr)
	}
	if _, err := loaderVal.LoadDir("/"); err == nil {
		t.Fatal("directory outside the module accepted")
	}
}

// TestRunSortsFindings checks deterministic ordering across analyzers.
func TestRunSortsFindings(t *testing.T) {
	pkg := fixture(t, "errdiscard")
	fs := Run(DefaultConfig(), pkg, All())
	for i := 1; i < len(fs); i++ {
		a, b := fs[i-1], fs[i]
		if a.Pos.Filename == b.Pos.Filename && a.Pos.Line > b.Pos.Line {
			t.Fatalf("findings out of order: %v before %v", a, b)
		}
	}
}
