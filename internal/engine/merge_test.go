package engine

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/bigreddata/brace/internal/agent"
)

// Run layouts FuzzMergeRuns builds.
const (
	layoutRuns     = iota // runs of random length, zero and one row included
	layoutOneRun          // the whole input one ascending run
	layoutDescent         // every row its own run
	layoutShuffled        // no order at all
	layoutReduce2         // reduce₂'s batches over owned and replica copies
	numLayouts
)

// FuzzMergeRuns checks runMerger against slices.SortFunc: the merged keys
// must be the sort's, and, since the merge is stable, the merged values
// must be slices.SortStableFunc's, on every run layout — by agent ID as
// reduce₁ orders, and by reduce₂'s (ID, owned first, SrcPart) key over a
// self batch of owned copies and replicas followed by peers' batches of
// partials. The merger is reused across inputs, as a partition's is, and
// must hold no value once it returns.
func FuzzMergeRuns(f *testing.F) {
	for layout := uint8(0); layout < numLayouts; layout++ {
		f.Add(uint64(layout), layout, uint16(300))
		f.Add(uint64(layout)+10, layout, uint16(1))
	}
	f.Add(uint64(20), uint8(layoutRuns), uint16(0))
	f.Add(uint64(21), uint8(layoutRuns), uint16(2000))
	var m runMerger[*Envelope]
	f.Fuzz(func(t *testing.T, seed uint64, layout uint8, n uint16) {
		rng := rand.New(rand.NewSource(int64(seed)))
		size := int(n % 4096)
		key := byID
		var in []*Envelope
		env := func(id int, replica bool, src int) *Envelope {
			return &Envelope{A: &agent.Agent{ID: agent.ID(id)}, Replica: replica, SrcPart: int32(src)}
		}
		switch layout % numLayouts {
		case layoutRuns:
			for len(in) < size {
				var run int
				switch rng.Intn(4) {
				case 0:
					run = 0
				case 1:
					run = 1
				default:
					run = rng.Intn(64)
				}
				id := rng.Intn(size + 1)
				for i := 0; i < run && len(in) < size; i++ {
					in = append(in, env(id, false, len(in)))
					id += rng.Intn(3) // equal IDs test stability
				}
			}
		case layoutOneRun:
			for i := 0; i < size; i++ {
				in = append(in, env(i, false, i))
			}
		case layoutDescent:
			for i := 0; i < size; i++ {
				in = append(in, env(size-i, false, i))
			}
		case layoutShuffled:
			for i := 0; i < size; i++ {
				in = append(in, env(rng.Intn(size+1), false, i))
			}
		case layoutReduce2:
			// The self batch: every owned copy and the replicas this
			// partition owns after a cut change, one per agent, ascending;
			// then each peer's partials, one per agent, ascending.
			key = byPartial
			const self = 3
			for id := 0; len(in) < size/2; id++ {
				if rng.Intn(5) > 0 {
					in = append(in, env(id, rng.Intn(8) == 0, self))
				}
			}
			agents := len(in) + 1
			for _, peer := range rng.Perm(7) {
				for id := 0; id < agents && len(in) < size; id++ {
					if peer != self && rng.Intn(3) == 0 {
						in = append(in, env(id, true, peer))
					}
				}
			}
		}
		want := slices.Clone(in)
		slices.SortFunc(want, key)
		stable := slices.Clone(in)
		slices.SortStableFunc(stable, key)
		m.sort(in, key)
		for i := range in {
			if key(in[i], want[i]) != 0 {
				t.Fatalf("layout %d, %d rows: row %d merged to key %v, the sort has %v", layout%numLayouts, len(in), i, *in[i], *want[i])
			}
			if in[i] != stable[i] {
				t.Fatalf("layout %d, %d rows: row %d is not the stable sort's", layout%numLayouts, len(in), i)
			}
		}
		for i, v := range m.buf {
			if v != nil {
				t.Fatalf("the merge buffer still holds a value at %d", i)
			}
		}
	})
}

// A partition's steady-state merge allocates nothing: the buffer and the
// run bounds are the merger's own.
func TestMergeRunsReusesItsBuffer(t *testing.T) {
	var m runMerger[*Envelope]
	in := make([]*Envelope, 600)
	for i := range in {
		// Three runs, as a self batch and two neighbors' batches.
		in[i] = &Envelope{A: &agent.Agent{ID: agent.ID(i%200*3 + i/200)}}
	}
	orig := slices.Clone(in)
	refill := func() {
		copy(in, orig)
		m.sort(in, byID)
	}
	refill()
	if !slices.IsSortedFunc(in, byID) {
		t.Fatal("three runs did not merge into ID order")
	}
	if allocs := testing.AllocsPerRun(10, refill); allocs != 0 {
		t.Errorf("a refilling merge allocates %v times, want 0", allocs)
	}
}
