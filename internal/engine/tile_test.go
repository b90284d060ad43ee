package engine_test

import (
	"testing"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/brasil"
	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/geom"
	"github.com/bigreddata/brace/internal/scenario"
)

// avoidSrc is the scripted avoidance benchmark's model: every fish is
// pushed away from each one within the visibility bound of 5.
const avoidSrc = `class Fish {
  public state float x : x + vx; #range[-5,5];
  public state float y : y + vy; #range[-5,5];
  public state float vx : 0.5 * vx + avoidx / max(count, 1);
  public state float vy : 0.5 * vy + avoidy / max(count, 1);
  private effect float avoidx : sum;
  private effect float avoidy : sum;
  private effect int count : sum;
  public void run() {
    foreach (Fish p : Extent<Fish>) {
      if (p != this) {
        avoidx <- (x - p.x) / (dist(this, p) + 0.01);
        avoidy <- (y - p.y) / (dist(this, p) + 0.01);
        count <- 1;
      }
    }
  }
}`

// tileEdges runs ticks one at a time and returns every partition's tile
// edge of every tick.
func tileEdges(t *testing.T, m engine.Model, pop []*agent.Agent, workers, ticks int) []int {
	t.Helper()
	e, err := engine.NewDistributed(m, clonePop(pop), engine.Options{Workers: workers, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var edges []int
	for i := 0; i < ticks; i++ {
		if err := e.RunTicks(1); err != nil {
			t.Fatal(err)
		}
		edges = append(edges, e.TileEdges()...)
	}
	return edges
}

// TestTileRule pins where the occupancy rule puts the two benchmark
// shapes: the fish school, about 16 fish to a grid cell, keeps one cell
// to a tile (and so its groups of before) at one and at eight
// partitions; the avoidance script, about one fish to a cell, widens its
// tiles.
func TestTileRule(t *testing.T) {
	sp, _ := scenario.Lookup("fish")
	m, pop, err := sp.New(scenario.Config{Agents: 2000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		for i, te := range tileEdges(t, m, pop, workers, 40) {
			if te != 1 {
				t.Fatalf("fish ×2000, %d workers: partition-tick %d has tile edge %d, want 1", workers, i, te)
			}
		}
	}

	prog, err := brasil.Compile(avoidSrc, brasil.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := prog.Schema()
	const n, span = 4000, 150
	pop = make([]*agent.Agent, n)
	for i := range pop {
		a := agent.New(s, agent.ID(i+1))
		rng := agent.NewRNG(7, 0, a.ID)
		a.SetPos(s, geom.V(rng.Float64()*span, rng.Float64()*span))
		pop[i] = a
	}
	for i, te := range tileEdges(t, prog, pop, 1, 10) {
		if te <= 1 {
			t.Fatalf("avoid ×%d over span %d: tick %d has tile edge %d, want > 1", n, span, i, te)
		}
	}
}
