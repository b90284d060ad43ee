package engine

import (
	"testing"

	"github.com/bigreddata/brace/internal/spatial"
)

// The two-pass tick changes scheduling, never results: the KindScan run of
// the same options splits over the scan, the default run over the cell
// grids, and both must be bit-identical to each other and to the
// naive oracle at every worker count, including under load balancing
// where live cut changes force no-split ticks.
func TestOverlapAblationBitIdentical(t *testing.T) {
	m := newFlockModel(8)
	base := makePop(m.s, 140, 60, 9)

	want := Naive(m, clonePop(base), 17, testTicks)

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
			popsExactlyEqual(t, tc.name+" grid vs scan", off.Agents(), on.Agents())
			popsExactlyEqual(t, tc.name+" grid vs oracle", want, on.Agents())
		}
	}
}

// The two-pass tick across an epoch barrier — the race-detector canary for
// the overlap window, where the interior pass and the boundary merge both
// touch the per-partition grid state from partition goroutines. CI runs
// this with -race.
func TestOverlapTickAcrossParallelism(t *testing.T) {
	m := newFlockModel(8)
	base := makePop(m.s, 120, 60, 5)

	want := Naive(m, clonePop(base), 42, testTicks)

	dist, err := NewDistributed(m, clonePop(base), Options{
		Workers: 4, Index: spatial.KindKDTree, Seed: 42, EpochTicks: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dist.RunTicks(testTicks); err != nil {
		t.Fatal(err)
	}
	popsExactlyEqual(t, "oracle vs two-pass dist", want, dist.Agents())
}
