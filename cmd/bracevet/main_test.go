package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module for gate tests.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const doctoredEngine = `package engine

// Emit walks a map in iteration order — exactly the bug class bracevet
// exists to stop.
func Emit(m map[int]float64, sink func(int, float64)) {
	for k, v := range m {
		sink(k, v)
	}
}
`

// TestGateRedOnDoctoredViolation proves the CI lint gate can fire: a tree
// with one reintroduced map-order violation must fail bracevet. This is
// the doctored-violation half of the acceptance criteria; the clean-tree
// half is TestRepoClean below and internal/lint's TestRepoIsCleanAtHEAD.
func TestGateRedOnDoctoredViolation(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":         "module example.com/doctored\n\ngo 1.21\n",
		"engine/emit.go": doctoredEngine,
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-dir", dir, "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "range over map") || !strings.Contains(stdout.String(), "[maporder]") {
		t.Fatalf("missing maporder finding in output:\n%s", stdout.String())
	}
}

// TestGateRedOnIndexCounterRead: a balancer charged what the index happened
// to examine — the coupling indexstats exists to keep out — fails the gate.
func TestGateRedOnIndexCounterRead(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module example.com/doctored\n\ngo 1.21\n",
		"spatial/index.go": `package spatial

type Stats struct{ Visited int64 }

type Index struct{ stats Stats }

func (ix *Index) Stats() Stats { return ix.stats }
`,
		"engine/balance.go": `package engine

import "example.com/doctored/spatial"

// Cost is the load balancer's input.
func Cost(ix *spatial.Index) int64 { return ix.Stats().Visited }
`,
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-dir", dir, "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "work counters") || !strings.Contains(stdout.String(), "[indexstats]") {
		t.Fatalf("missing indexstats finding in output:\n%s", stdout.String())
	}
}

// TestGateGreenAfterFix: the same module with the loop rewritten over a
// sorted slice passes.
func TestGateGreenAfterFix(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module example.com/fixed\n\ngo 1.21\n",
		"engine/emit.go": `package engine

import "sort"

func Emit(m map[int]float64, sink func(int, float64)) {
	keys := make([]int, 0, len(m))
	for k := range m { //bracevet:allow maporder order erased by the sort below
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		sink(k, m[k])
	}
}
`,
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-dir", dir, "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
}

// TestRepoClean runs the real binary path over the real repository: the
// acceptance criterion `go run ./cmd/bracevet ./...` exits 0.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the entire repository")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-dir", root, "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("bracevet not clean at HEAD (exit %d):\n%s%s", code, stdout.String(), stderr.String())
	}
}

func TestListFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, name := range []string{"maporder", "framecase", "wallclock", "globalrand", "indexstats"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, stdout.String())
		}
	}
}

func TestVetToolProbes(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-V=full"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-V=full exit = %d", code)
	}
	if !strings.HasPrefix(stdout.String(), "bracevet version ") {
		t.Errorf("-V=full output %q", stdout.String())
	}
	stdout.Reset()
	if code := run([]string{"-flags"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-flags exit = %d", code)
	}
	if strings.TrimSpace(stdout.String()) != "[]" {
		t.Errorf("-flags output %q, want []", stdout.String())
	}
}
