package engine

import (
	"testing"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/geom"
	"github.com/bigreddata/brace/internal/spatial"
)

// selfCounter is a local-effects model that counts its query phases per
// agent and probes the visibility bound, so every group builds a block.
type selfCounter struct {
	s    *agent.Schema
	runs map[agent.ID]int
}

func (m *selfCounter) Schema() *agent.Schema { return m.s }

func (m *selfCounter) Query(c *Cols, self int32) {
	m.runs[c.Env().Self().ID]++
	c.Visible()
}

func (m *selfCounter) Update(*agent.Agent, *UpdateCtx) {}

// TestGroupsRunEachSelfOnce drives a partition-tick's pass through tiles
// wider than one cell, clipped at the grid's right and top edges, and
// requires every selected self to run its query phase exactly once and no
// other copy to run at all — for the owned slots of a copy set and then
// for the rest of it.
func TestGroupsRunEachSelfOnce(t *testing.T) {
	s := agent.NewSchema("Count")
	s.AddState("x", true)
	s.AddState("y", true)
	s.SetPosition("x", "y").SetVisibility(5)
	m := &selfCounter{s: s}
	c, err := newCore(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := c.newPart(spatial.KindKDTree)

	// One square: about two copies to a 2.5-wide cell, on a grid of 31×31
	// cells.
	const n, span = 2000, 76
	rng := agent.NewRNG(1, 0, 0)
	var copies []*agent.Agent
	for i := 0; i < n; i++ {
		a := agent.New(s, agent.ID(i+1))
		a.SetPos(s, geom.V(rng.Float64()*span, rng.Float64()*span))
		copies = append(copies, a)
	}
	p.build(copies)
	g := &p.grid
	te := g.tileEdge()
	if te < 2 || g.nx%te == 0 || g.ny%te == 0 {
		t.Fatalf("test config mis-tuned: tile edge %d over %d×%d cells, want > 1 and clipped tiles", te, g.nx, g.ny)
	}

	check := func(pass string, want map[agent.ID]bool) {
		t.Helper()
		for id, k := range m.runs {
			if !want[id] {
				t.Errorf("%s: unselected agent %d ran %d times", pass, id, k)
			}
		}
		for id := range want {
			if k := m.runs[id]; k != 1 {
				t.Errorf("%s: agent %d ran %d times, want once", pass, id, k)
			}
		}
	}

	// The owned slots: every slot but each seventh, ascending; then the
	// rest, the replicas.
	var owned, rest []int32
	wantOwned, wantRest := map[agent.ID]bool{}, map[agent.ID]bool{}
	for slot, a := range copies {
		if slot%7 == 0 {
			rest = append(rest, int32(slot))
			wantRest[a.ID] = true
			continue
		}
		owned = append(owned, int32(slot))
		wantOwned[a.ID] = true
	}
	m.runs = map[agent.ID]int{}
	p.query(owned)
	check("owned slots", wantOwned)
	m.runs = map[agent.ID]int{}
	p.query(rest)
	check("the rest", wantRest)
}
