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

// TestGroupsRunEachSelfOnce drives both passes of a partition-tick through
// tiles wider than one cell, clipped at the grid's right and top edges,
// and requires every selected self, core or halo, to run its query phase
// exactly once per pass and no other agent to run at all.
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

	// Odd IDs are the core, even ones the halo, over one square: about
	// one core copy to a 2.5-wide cell, on a grid of 31×31 cells.
	const n, span = 1000, 76
	rng := agent.NewRNG(1, 0, 0)
	var core, halo []*agent.Agent
	for i := 0; i < 2*n; i++ {
		a := agent.New(s, agent.ID(i+1))
		a.SetPos(s, geom.V(rng.Float64()*span, rng.Float64()*span))
		if i%2 == 0 {
			core = append(core, a)
		} else {
			halo = append(halo, a)
		}
	}
	p.build(core)
	g := &p.grid
	te := g.tileEdge()
	if te < 2 || g.nx%te == 0 || g.ny%te == 0 {
		t.Fatalf("test config mis-tuned: tile edge %d over %d×%d cells, want > 1 and clipped tiles", te, g.nx, g.ny)
	}

	check := func(pass string, want map[agent.ID]bool) {
		t.Helper()
		for id, k := range m.runs {
			if !want[id] {
				t.Errorf("%s pass: unselected agent %d ran %d times", pass, id, k)
			}
		}
		for id := range want {
			if k := m.runs[id]; k != 1 {
				t.Errorf("%s pass: agent %d ran %d times, want once", pass, id, k)
			}
		}
	}

	// The early pass: every core slot but each seventh, ascending.
	var early, late []int32
	want := map[agent.ID]bool{}
	for slot, a := range core {
		if slot%7 == 0 {
			late = append(late, int32(slot))
			continue
		}
		early = append(early, int32(slot))
		want[a.ID] = true
	}
	m.runs = map[agent.ID]int{}
	p.query(early, nil)
	check("early", want)

	// The late pass: the rest of the core and every third halo copy, as
	// owned agents arriving from a peer.
	h := &haloJoin{agents: halo}
	p.join(h)
	want = map[agent.ID]bool{}
	for _, slot := range late {
		want[core[slot].ID] = true
	}
	for j, a := range halo {
		if j%3 == 0 {
			late = append(late, int32(len(core)+j))
			want[a.ID] = true
		}
	}
	m.runs = map[agent.ID]int{}
	p.query(late, h)
	check("late", want)
}
