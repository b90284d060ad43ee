package engine

import "github.com/bigreddata/brace/internal/agent"

// Naive runs the naive oracle (naive_test.go) over pop for the given
// ticks and returns its final ID-sorted population.
func Naive(m Model, pop []*agent.Agent, seed uint64, ticks int) agent.Population {
	n := newNaive(m, pop, seed)
	n.run(ticks)
	return n.agents
}
