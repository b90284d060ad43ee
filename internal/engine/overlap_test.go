package engine

import (
	"slices"
	"sync"
	"testing"

	"github.com/bigreddata/brace/internal/agent"
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

// orderModel is a non-local model that logs, per probe env (one per
// partition) and tick, the selves it runs for and the Assigns it folds, in
// the order they happen. Agents drift, so load balancing moves cuts and
// owned agents arrive from peers on the tick after.
type orderModel struct {
	s          *agent.Schema
	x, y, tick int
	e          int

	mu     sync.Mutex
	selves map[orderKey][]agent.ID
	folds  map[orderKey][][2]agent.ID // (self, target) per Assign
}

type orderKey struct {
	env  Env
	tick float64
}

func newOrderModel() *orderModel {
	s := agent.NewSchema("Order")
	m := &orderModel{s: s, selves: map[orderKey][]agent.ID{}, folds: map[orderKey][][2]agent.ID{}}
	m.x = s.AddState("x", true)
	m.y = s.AddState("y", true)
	m.tick = s.AddState("tick", false)
	m.e = s.AddEffect("hits", true, agent.Sum)
	s.SetPosition("x", "y").SetVisibility(4).SetReach(2)
	return m
}

func (m *orderModel) Schema() *agent.Schema    { return m.s }
func (m *orderModel) HasNonLocalEffects() bool { return true }

func (m *orderModel) Query(self *agent.Agent, env Env) {
	k := orderKey{env, self.State[m.tick]}
	m.mu.Lock()
	m.selves[k] = append(m.selves[k], self.ID)
	m.mu.Unlock()
	env.ForEachVisible(func(p *agent.Agent) {
		env.Assign(p, m.e, 1)
		m.mu.Lock()
		m.folds[k] = append(m.folds[k], [2]agent.ID{self.ID, p.ID})
		m.mu.Unlock()
	})
}

func (m *orderModel) Update(self *agent.Agent, u *UpdateCtx) {
	self.State[m.tick]++
	self.State[m.x] += u.RNG.Range(-1, 2)
	self.State[m.y] += u.RNG.Range(-1, 1)
}

// The self-order contract: local-effect query phases may run in any order
// (the engine groups them by grid cell), but a non-local model's Assigns
// fold into other agents' effects, so its selves run, and fold, in
// ascending ID order within every partition and tick — at any worker
// count, on split and unsplit ticks, and when owned agents arrive from a
// peer after a cut change.
func TestNonLocalSelvesFoldInIDOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		m := newOrderModel()
		pop := makePop(m.s, 300, 40, 4)
		for _, a := range pop[:200] {
			a.SetPos(m.s, a.Pos(m.s).Scale(0.25)) // crowded, so many selves share a cell
		}
		e, err := NewDistributed(m, pop, Options{Workers: workers, Seed: 5, LoadBalance: true, EpochTicks: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RunTicks(12); err != nil {
			t.Fatal(err)
		}
		if workers > 1 && e.Recoveries() == 0 && !slices.ContainsFunc(e.Epochs(), func(s EpochStat) bool { return s.Rebalanced }) {
			t.Fatalf("%d workers: the balancer never moved a cut", workers)
		}
		probed := 0
		for k, ids := range m.selves {
			probed += len(ids)
			if !slices.IsSorted(ids) || len(slices.Compact(slices.Clone(ids))) != len(ids) {
				t.Fatalf("%d workers, tick %v: selves ran as %v, want ascending IDs", workers, k.tick, ids)
			}
			folds := m.folds[k]
			for i := 1; i < len(folds); i++ {
				prev, cur := folds[i-1], folds[i]
				if cur[0] < prev[0] || (cur[0] == prev[0] && cur[1] <= prev[1]) {
					t.Fatalf("%d workers, tick %v: Assign %v folded after %v", workers, k.tick, cur, prev)
				}
			}
		}
		if want := 300 * 12; probed != want {
			t.Fatalf("%d workers: %d query phases, want %d", workers, probed, want)
		}
	}
}
