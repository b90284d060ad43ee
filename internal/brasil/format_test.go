package brasil

import (
	"strings"
	"testing"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/spatial"
)

// Format∘Parse must be a fixpoint: formatting, reparsing and formatting
// again yields the same text.
func TestFormatRoundTrip(t *testing.T) {
	for name, src := range map[string]string{"fish": fishSrc, "push": pushSrc} {
		cl, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		once := Format(cl)
		cl2, err := Parse(once)
		if err != nil {
			t.Fatalf("%s: formatted source does not reparse: %v\n%s", name, err, once)
		}
		twice := Format(cl2)
		if once != twice {
			t.Errorf("%s: format not a fixpoint:\n--- once ---\n%s--- twice ---\n%s", name, once, twice)
		}
	}
}

// The formatted source must compile to a semantically identical program.
func TestFormatPreservesSemantics(t *testing.T) {
	cl, err := Parse(fishSrc)
	if err != nil {
		t.Fatal(err)
	}
	formatted := Format(cl)
	p1, err := Compile(fishSrc, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compile(formatted, CompileOptions{})
	if err != nil {
		t.Fatalf("formatted source does not compile: %v\n%s", err, formatted)
	}
	mk := func(s *agent.Schema) []*agent.Agent { return seedPop(s, 40, 12) }
	e1, err := engine.NewDistributed(p1, mk(p1.Schema()), engine.Options{Workers: 1, Index: spatial.KindKDTree, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := engine.NewDistributed(p2, mk(p2.Schema()), engine.Options{Workers: 1, Index: spatial.KindKDTree, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.RunTicks(6); err != nil {
		t.Fatal(err)
	}
	if err := e2.RunTicks(6); err != nil {
		t.Fatal(err)
	}
	a, b := e1.Agents(), e2.Agents()
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("formatted program diverged at agent %d", a[i].ID)
		}
	}
}

// Formatting the inverted script shows the Theorem 2 rewrite: the
// non-local assignment is gone, the swapped local one is present under
// the re-imposed distance guard.
func TestFormatInvertedScript(t *testing.T) {
	ck := checkedFor(t, pushSrc)
	inv, err := Invert(ck)
	if err != nil {
		t.Fatal(err)
	}
	out := Format(inv)
	if strings.Contains(out, "p.pushx <-") {
		t.Errorf("inverted script still assigns non-locally:\n%s", out)
	}
	if !strings.Contains(out, "pushx <-") {
		t.Errorf("inverted script lost the assignment:\n%s", out)
	}
	// pushSrc has no #range tags (Theorem 2's unbounded case): the swapped
	// distance guard must appear, and no visibility guard is added.
	if !strings.Contains(out, "dist(p, this) < 3") {
		t.Errorf("inverted script lacks the swapped guard:\n%s", out)
	}
	if strings.Contains(out, "<= ") && strings.Contains(out, "dist(this, p) <=") {
		t.Errorf("unexpected visibility guard in the unbounded case:\n%s", out)
	}
	// And it still parses + checks.
	cl2, err := Parse(out)
	if err != nil {
		t.Fatalf("inverted script does not reparse: %v\n%s", err, out)
	}
	ck2, err := Check(cl2)
	if err != nil {
		t.Fatal(err)
	}
	if ck2.HasNonLocal {
		t.Error("reparsed inverted script still non-local")
	}
}

// With a distance-bound visibility (Theorem 3's case) the inverter
// re-imposes the original bound as an explicit guard.
func TestFormatInvertedScriptWithVisibility(t *testing.T) {
	const visSrc = `
class C {
  public state float x : x; #range[-4,4];
  public state float y : y; #range[-4,4];
  public state float m : m;
  public effect float push : sum;
  public void run() {
    foreach (C p : Extent<C>) {
      if (p != this) {
        p.push <- (p.x - x) * m;
      }
    }
  }
}
`
	ck := checkedFor(t, visSrc)
	inv, err := Invert(ck)
	if err != nil {
		t.Fatal(err)
	}
	out := Format(inv)
	if !strings.Contains(out, "dist(this, p) <= 4") {
		t.Errorf("inverted script lacks the re-imposed visibility guard:\n%s", out)
	}
	if strings.Contains(out, "p.push <-") {
		t.Errorf("non-local assignment survived inversion:\n%s", out)
	}
}

func checkedFor(t *testing.T, src string) *Checked {
	t.Helper()
	cl, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := Check(cl)
	if err != nil {
		t.Fatal(err)
	}
	return ck
}
