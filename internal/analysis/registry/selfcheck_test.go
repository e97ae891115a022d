package registry_test

import (
	"os"
	"testing"

	"hclocksync/internal/analysis"
	"hclocksync/internal/analysis/registry"
)

// TestRepositoryIsClean runs the full analyzer suite — exactly what
// `go run ./cmd/synclint ./...` and `make lint` run — over the whole
// module and demands zero findings. Every escape hatch in the tree is
// audited with a reasoned //synclint: directive; a new violation, or a
// typo in one of those directives, fails this test.
//
// It also pins the escape budget: the exact number of directives of each
// name in the tree. Growing an escape count is sometimes right, but it
// must show up as a reviewed diff here, never as silent drift.
func TestRepositoryIsClean(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := analysis.ModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; pattern ./... should cover the whole module", len(pkgs))
	}
	analyzers := registry.All()
	if len(analyzers) != 4 {
		t.Fatalf("registry has %d analyzers, want 4", len(analyzers))
	}
	diags, err := analysis.RunAll(pkgs, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Logf("%d finding(s); fix them or add an audited //synclint: directive", len(diags))
	}

	// Escape budget, by directive name, over the loaded (non-test) tree.
	// Change a count only in a commit whose message says which directives
	// it adds or removes and why.
	wantEscapes := map[string]int{
		analysis.DirAllocfree: 99,
		analysis.DirAlloc:     22,
		analysis.DirOrdered:   7,
		analysis.DirWallclock: 18,
		analysis.DirSeedok:    0,
	}
	got := analysis.CountDirectives(pkgs)
	for name, want := range wantEscapes {
		if got[name] != want {
			t.Errorf("escape budget: %d //synclint:%s directives in tree, budget is %d — if the new one is justified, update wantEscapes with the review", got[name], name, want)
		}
	}
	for name := range got {
		if _, ok := wantEscapes[name]; !ok {
			t.Errorf("escape budget: directive //synclint:%s is not in the budget map", name)
		}
	}
}
