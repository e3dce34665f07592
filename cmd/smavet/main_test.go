package main

import (
	"path/filepath"
	"runtime"
	"testing"

	"sma/internal/analysis"
)

// TestDeadExportSubsetUsesTreeIndex runs deadexport on one package that
// other packages call into. The tree-wide index must clear it exactly as
// a ./... run does; an index of the package alone must not, or the test
// proves nothing.
func TestDeadExportSubsetUsesTreeIndex(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	analyzers := []*analysis.Analyzer{analysis.DeadExport}
	got, err := analyze(root, []string{"./internal/grid"}, analysis.DefaultConfig(), analyzers, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("subset run flagged %d functions the tree references, first %v", len(got), got[0])
	}

	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir("internal/grid")
	if err != nil {
		t.Fatal(err)
	}
	if alone := analysis.Run(analysis.DefaultConfig(), pkg, analyzers); len(alone) == 0 {
		t.Fatal("an index of internal/grid alone flagged nothing; the subset check is vacuous")
	}
}
