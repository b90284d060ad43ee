package scenario

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/cluster"
	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/transport"
)

// shuffledDrains is a Mem whose every Drain hands back its messages in a
// seeded random order, one generator per node, so that the permutation a
// node sees does not depend on which runner drains it.
type shuffledDrains struct {
	*transport.Mem
	rngs []*rand.Rand
	// permuted counts the drains that had two or more messages to permute.
	permuted []int
}

func newShuffledDrains(n int, seed int64) *shuffledDrains {
	s := &shuffledDrains{Mem: transport.NewMem(n), rngs: make([]*rand.Rand, n), permuted: make([]int, n)}
	for i := range s.rngs {
		s.rngs[i] = rand.New(rand.NewSource(seed + int64(i)))
	}
	return s
}

// Drain permutes the Mem's slice in place: it is the caller's until the
// node's next Drain.
func (s *shuffledDrains) Drain(n cluster.NodeID) []cluster.Message {
	msgs := s.Mem.Drain(n)
	if len(msgs) > 1 {
		s.permuted[n]++
	}
	s.rngs[n].Shuffle(len(msgs), func(i, j int) { msgs[i], msgs[j] = msgs[j], msgs[i] })
	return msgs
}

// Arrival order is not part of the runtime's semantics
// (transport.Transport.Drain): fish, whose effects are local, and
// predator, whose non-local effects fold through reduce₂'s merge of
// partials, end on the same digest when every drained batch arrives
// shuffled, at four and eight partitions, with and without load
// balancing.
func TestDrainOrderDoesNotMatter(t *testing.T) {
	const ticks, epochTicks = 24, 4
	for _, name := range []string{"fish", "predator"} {
		sp, ok := Lookup(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		for _, workers := range []int{4, 8} {
			for _, lb := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%dp/lb=%t", name, workers, lb), func(t *testing.T) {
					run := func(tr transport.Transport) uint64 {
						t.Helper()
						m, pop, err := sp.New(Config{Agents: 400, Seed: 3})
						if err != nil {
							t.Fatal(err)
						}
						e, err := engine.NewDistributed(m, pop, engine.Options{
							Workers: workers, Seed: 3, EpochTicks: epochTicks, LoadBalance: lb, Transport: tr,
						})
						if err != nil {
							t.Fatal(err)
						}
						if err := e.RunTicks(ticks); err != nil {
							t.Fatal(err)
						}
						return agent.Digest(e.Agents())
					}
					want := run(nil)
					shuffled := newShuffledDrains(workers, int64(workers))
					if got := run(shuffled); got != want {
						t.Errorf("with shuffled drains the run ends on digest %016x, unshuffled on %016x", got, want)
					}
					total := 0
					for _, n := range shuffled.permuted {
						total += n
					}
					if total == 0 {
						t.Error("no drain had two messages to permute; the test shows nothing")
					}
				})
			}
		}
	}
}
