package engine

import (
	"testing"

	"github.com/bigreddata/brace/internal/spatial"
)

// The two-pass tick changes scheduling, never results: the KindScan run of
// the same options splits over an uncached index, the KD run over the
// cached one, and both must be bit-identical to each other and to the
// sequential engine at every worker count, including under load balancing
// where live cut changes force no-split ticks.
func TestOverlapAblationBitIdentical(t *testing.T) {
	m := newFlockModel(8)
	base := makePop(m.s, 140, 60, 9)

	seq, err := NewSequential(m, clonePop(base), spatial.KindKDTree, 17)
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.RunTicks(testTicks); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"plain", Options{Index: spatial.KindKDTree, Seed: 17}},
		{"lb", Options{Index: spatial.KindKDTree, Seed: 17, LoadBalance: true, EpochTicks: 3}},
	} {
		for _, workers := range []int{1, 3, 5} {
			tc.opts.Workers = workers
			on, err := NewDistributed(m, clonePop(base), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			offOpts := tc.opts
			offOpts.Index = spatial.KindScan
			off, err := NewDistributed(m, clonePop(base), offOpts)
			if err != nil {
				t.Fatal(err)
			}
			if err := on.RunTicks(testTicks); err != nil {
				t.Fatal(err)
			}
			if err := off.RunTicks(testTicks); err != nil {
				t.Fatal(err)
			}
			popsExactlyEqual(t, tc.name+" KD vs scan", off.Agents(), on.Agents())
			popsExactlyEqual(t, tc.name+" KD vs sequential", seq.Agents(), on.Agents())
		}
	}
}

// The two-pass tick across an epoch barrier — the race-detector canary for
// the overlap window, where the interior pass, the boundary merge and the
// barrier prebuild all touch the per-partition cache state from partition
// goroutines. CI runs this with -race.
func TestOverlapTickAcrossParallelism(t *testing.T) {
	m := newFlockModel(8)
	base := makePop(m.s, 120, 60, 5)

	seq, err := NewSequential(m, clonePop(base), spatial.KindKDTree, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.RunTicks(testTicks); err != nil {
		t.Fatal(err)
	}

	dist, err := NewDistributed(m, clonePop(base), Options{
		Workers: 4, Index: spatial.KindKDTree, Seed: 42, EpochTicks: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dist.RunTicks(testTicks); err != nil {
		t.Fatal(err)
	}
	popsExactlyEqual(t, "seq vs two-pass dist", seq.Agents(), dist.Agents())
}
