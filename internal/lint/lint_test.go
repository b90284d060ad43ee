package lint

import (
	"os"
	"path/filepath"
	"testing"
)

func TestMapOrder(t *testing.T)   { runTestdata(t, MapOrder, "maporder") }
func TestFrameCase(t *testing.T)  { runTestdata(t, FrameCase, "framecase") }
func TestWallClock(t *testing.T)  { runTestdata(t, WallClock, "wallclock") }
func TestGlobalRand(t *testing.T) { runTestdata(t, GlobalRand, "globalrand") }
func TestIndexStats(t *testing.T) { runTestdata(t, IndexStats, "indexstats") }

// TestRepoIsCleanAtHEAD is the self-check the CI lint job depends on:
// the full suite over the whole repository must be finding-free. Any
// regression — a new map range in a deterministic package, a swallowed
// frame kind, a wall-clock read in sim state — fails this test before it
// fails CI.
func TestRepoIsCleanAtHEAD(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the entire repository")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not found at %s: %v", root, err)
	}
	pkgs, err := Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(All(), pkgs)
	for _, d := range diags {
		t.Errorf("bracevet finding at HEAD: %s", d)
	}
}

// TestDiagnosticsAreDeterministic runs the suite twice over the same
// testdata and asserts identical output order — the lint tool obeys the
// invariant it polices.
func TestDiagnosticsAreDeterministic(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "maporder"))
	if err != nil {
		t.Fatal(err)
	}
	var prev []Diagnostic
	for i := 0; i < 2; i++ {
		pkgs, err := Load(dir, "./...")
		if err != nil {
			t.Fatal(err)
		}
		diags := Run([]*Analyzer{MapOrder}, pkgs)
		if len(diags) == 0 {
			t.Fatal("expected findings in maporder testdata")
		}
		if i > 0 {
			if len(diags) != len(prev) {
				t.Fatalf("run %d: %d findings, previous run had %d", i, len(diags), len(prev))
			}
			for j := range diags {
				if diags[j].String() != prev[j].String() {
					t.Errorf("finding %d differs across runs:\n  %s\n  %s", j, prev[j], diags[j])
				}
			}
		}
		prev = diags
	}
}
