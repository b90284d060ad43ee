//go:build !race

// Kept out of race builds like wire_alloc_test.go, so that every allocation
// count in this package is taken the same way.

package engine

import (
	"testing"

	"github.com/bigreddata/brace/internal/partition"
	"github.com/bigreddata/brace/internal/transport"
)

// The checkpoint path allocates per partition, never per agent: a worker's
// Checkpoint hands out its live envelopes in one slice of pieces, and the
// master files full pieces as they are, allocating nothing.
func TestCheckpointPathAllocs(t *testing.T) {
	m := newFlockModel(4)
	for _, n := range []int{200, 2000} {
		pop := makePop(m.s, n, 100, 3)
		w, err := NewDistributed(m, clonePop(pop), Options{Workers: 4, Seed: 3, LocalParts: []int{1, 2}})
		if err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(100, func() { w.Checkpoint() }); got > 1 {
			t.Errorf("%d agents: a worker's Checkpoint allocates %.0f times, want ≤ 1", n, got)
		}

		e, err := NewDistributed(m, pop, Options{Workers: 4, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		pieces := e.Checkpoint()
		ms := NewMaster(Checkpoint{Cuts: e.Partition().Cuts()}, 1, false, partition.Balancer{})
		ck := &Checkpoint{Tick: 1, Cuts: e.Partition().Cuts(), Parts: make([]transport.PartState, 4)}
		if got := testing.AllocsPerRun(100, func() {
			clear(ck.Parts)
			ms.pending, ms.filed = ck, 0
			if held, err := ms.File(pieces...); err != nil || held != ck {
				t.Fatalf("File = %v, %v; want the checkpoint complete", held, err)
			}
		}); got != 0 {
			t.Errorf("%d agents: Master.File of %d full pieces allocates %.0f times, want 0", n, len(pieces), got)
		}
	}
}
