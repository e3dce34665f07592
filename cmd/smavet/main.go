// Command smavet runs the project-specific static-analysis suite over
// the SMA pipeline sources. It needs only the Go standard library: the
// module's packages are parsed and type-checked in-process, then
// analyzed in parallel (one worker per package up to -parallel).
//
// Usage:
//
//	go run ./cmd/smavet ./...
//	go run ./cmd/smavet -checks lockscope,goleak ./internal/server
//	go run ./cmd/smavet -json ./... > smavet.json
//	go run ./cmd/smavet -write-baseline ./...
//
// Findings print as file:line: [check] message. Error-severity findings
// always gate; warn-severity findings gate only when absent from the
// committed .smavet-baseline ratchet file (new debt fails, frozen debt
// passes, entries that stop matching are reported stale). Individual
// sites are suppressed with //smavet:allow <check> [-- reason] on the
// same or previous line; the concurrency & determinism checks require
// the reason. See docs/STATIC_ANALYSIS.md.
//
// Exit status: 0 clean, 1 gating findings, 2 load/type/usage error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"sma/internal/analysis"
)

func main() {
	checks := flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
	kernels := flag.String("kernels", "", "extra comma-separated kernel function names for hotalloc")
	sinks := flag.String("sinks", "", "extra comma-separated approved narrowing sinks for floatnarrow")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON report on stdout")
	sarifOut := flag.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log on stdout")
	baselinePath := flag.String("baseline", "", "baseline file (default <module root>/.smavet-baseline)")
	writeBaseline := flag.Bool("write-baseline", false, "freeze current warn findings into the baseline file and exit")
	noBaseline := flag.Bool("no-baseline", false, "ignore the baseline: every finding gates")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "max packages analyzed concurrently")
	list := flag.Bool("list", false, "list available checks and exit")
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-18s %s\n", a.Name, a.Doc)
		}
		return
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: smavet [flags] ./... | dir ...")
		os.Exit(2)
	}
	if *jsonOut && *sarifOut {
		fatalf("-json and -sarif are mutually exclusive")
	}

	analyzers := analysis.All()
	if *checks != "" {
		want := map[string]bool{}
		for _, c := range strings.Split(*checks, ",") {
			want[strings.TrimSpace(c)] = true
		}
		var sel []*analysis.Analyzer
		for _, a := range analyzers {
			if want[a.Name] {
				sel = append(sel, a)
				delete(want, a.Name)
			}
		}
		for unknown := range want {
			fatalf("unknown check %q (try -list)", unknown)
		}
		analyzers = sel
	}

	cfg := analysis.DefaultConfig()
	addNames(cfg.KernelFuncs, *kernels)
	addNames(cfg.NarrowSinks, *sinks)

	root, err := moduleRoot()
	if err != nil {
		fatalf("%v", err)
	}
	all, err := analyze(root, flag.Args(), cfg, analyzers, *parallel)
	if err != nil {
		fatalf("%v", err)
	}

	bpath := *baselinePath
	if bpath == "" {
		bpath = filepath.Join(root, ".smavet-baseline")
	}
	if *writeBaseline {
		errs := 0
		for _, f := range all {
			if f.Severity == analysis.SevError {
				errs++
			}
		}
		if err := analysis.WriteBaseline(bpath, root, all); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "smavet: baseline written to %s (%d warn finding(s) frozen; %d error(s) NOT frozen — fix those)\n",
			bpath, len(all)-errs, errs)
		if errs > 0 {
			os.Exit(1)
		}
		return
	}

	base := &analysis.Baseline{}
	if !*noBaseline {
		base, err = analysis.ReadBaseline(bpath)
		if err != nil {
			fatalf("%v", err)
		}
	}
	gating, baselined, stale := base.Filter(root, all)

	switch {
	case *jsonOut:
		if err := analysis.WriteJSON(os.Stdout, root, gating, baselined, stale); err != nil {
			fatalf("%v", err)
		}
	case *sarifOut:
		if err := analysis.WriteSARIF(os.Stdout, root, analyzers, gating, baselined); err != nil {
			fatalf("%v", err)
		}
	default:
		for _, f := range gating {
			fmt.Printf("%s:%d: [%s:%s] %s\n", relTo(root, f.Pos.Filename), f.Pos.Line, f.Check, f.Severity, f.Message)
		}
	}
	analysis.WriteStale(os.Stderr, stale)
	if n := len(baselined); n > 0 {
		fmt.Fprintf(os.Stderr, "smavet: %d baselined warn finding(s) suppressed by %s\n", n, relTo(root, bpath))
	}
	if len(gating) > 0 {
		fmt.Fprintf(os.Stderr, "smavet: %d finding(s)\n", len(gating))
		os.Exit(1)
	}
}

// analyze loads the packages the patterns name and runs the analyzers
// over them. Loading is serial — the loader caches package type-checks
// and is not concurrent-safe — and analysis is parallel: each package's
// pass is independent and findings are merged in sorted-dir order, so the
// output is identical at any parallel value. When deadexport runs, every
// package of the module is loaded too and indexed once, so a subset
// pattern sees the references the whole tree makes.
func analyze(root string, patterns []string, cfg *analysis.Config, analyzers []*analysis.Analyzer, parallel int) ([]analysis.Finding, error) {
	loader, err := analysis.NewLoader(root)
	if err != nil {
		return nil, err
	}
	dirs, err := expandPatterns(root, patterns)
	if err != nil {
		return nil, err
	}
	pkgs := make([]*analysis.Package, len(dirs))
	for i, dir := range dirs {
		if pkgs[i], err = loader.LoadDir(dir); err != nil {
			return nil, err
		}
	}
	if slices.Contains(analyzers, analysis.DeadExport) {
		tree, err := expandPatterns(root, []string{"./..."})
		if err != nil {
			return nil, err
		}
		for _, dir := range tree {
			if _, err := loader.LoadDir(dir); err != nil {
				return nil, err
			}
		}
		c := *cfg
		c.Refs = analysis.IndexRefs(loader.Packages())
		cfg = &c
	}

	perPkg := make([][]analysis.Finding, len(pkgs))
	if parallel < 1 {
		parallel = 1
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, parallel)
	for i, pkg := range pkgs {
		wg.Add(1)
		go func(i int, pkg *analysis.Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			perPkg[i] = analysis.Run(cfg, pkg, analyzers)
		}(i, pkg)
	}
	wg.Wait()
	var all []analysis.Finding
	for _, fs := range perPkg {
		all = append(all, fs...)
	}
	return all, nil
}

func relTo(root, path string) string {
	rel, err := filepath.Rel(root, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return rel
}

func addNames(dst map[string]bool, csv string) {
	for _, n := range strings.Split(csv, ",") {
		if n = strings.TrimSpace(n); n != "" {
			dst[n] = true
		}
	}
}

// moduleRoot walks up from the working directory to the enclosing go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

// expandPatterns resolves ./...-style patterns and plain directories to
// the set of package directories to analyze. Recursive walks skip
// testdata, vendor and hidden directories — but a pattern rooted inside
// testdata analyzes it explicitly (this is how the analyzer fixtures are
// exercised end to end).
func expandPatterns(root string, args []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, arg := range args {
		base, recursive := arg, false
		if strings.HasSuffix(arg, "/...") {
			base, recursive = strings.TrimSuffix(arg, "/..."), true
		} else if arg == "..." {
			base, recursive = ".", true
		}
		if base == "" {
			base = "."
		}
		abs := base
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(root, base)
		}
		if !recursive {
			if hasGoFiles(abs) {
				add(abs)
			} else {
				return nil, fmt.Errorf("no Go files in %s", base)
			}
			continue
		}
		inTestdata := strings.Contains(abs, string(filepath.Separator)+"testdata")
		err := filepath.WalkDir(abs, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != abs && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "vendor" || (name == "testdata" && !inTestdata)) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "smavet: "+format+"\n", args...)
	os.Exit(2)
}
