package engine

import "github.com/bigreddata/brace/internal/agent"

// Naive runs the naive oracle (naive_test.go) over pop for the given
// ticks and returns its final ID-sorted population.
func Naive(m Model, pop []*agent.Agent, seed uint64, ticks int) agent.Population {
	n := newNaive(m, pop, seed)
	n.run(ticks)
	return n.agents
}

// TileEdges returns each partition's tile edge (cellGrid.tileEdge) over
// its last grid build: the t the passes of the last tick grouped by.
func (e *Distributed) TileEdges() []int {
	t := make([]int, len(e.parts))
	for w, p := range e.parts {
		t[w] = p.grid.tileEdge()
	}
	return t
}
