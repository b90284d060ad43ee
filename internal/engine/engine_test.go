package engine

import (
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/cluster"
	"github.com/bigreddata/brace/internal/geom"
	"github.com/bigreddata/brace/internal/spatial"
	"github.com/bigreddata/brace/internal/transport"
)

// flockModel is a minimal local-effects model: agents repel each other
// within the visibility radius (like the paper's Fig. 2 fish) and drift
// with a small random perturbation.
type flockModel struct {
	s            *agent.Schema
	x, y, vx, vy int
	ax, ay, cnt  int
}

func newFlockModel(vis float64) *flockModel {
	s := agent.NewSchema("Flock")
	m := &flockModel{s: s}
	m.x = s.AddState("x", true)
	m.y = s.AddState("y", true)
	m.vx = s.AddState("vx", true)
	m.vy = s.AddState("vy", true)
	m.ax = s.AddEffect("avoidx", false, agent.Sum)
	m.ay = s.AddEffect("avoidy", false, agent.Sum)
	m.cnt = s.AddEffect("count", false, agent.Sum)
	s.SetPosition("x", "y").SetVisibility(vis).SetReach(1)
	return m
}

func (m *flockModel) Schema() *agent.Schema { return m.s }

func (m *flockModel) Query(env *Cols, self int32) {
	xs, ys := env.State(m.x), env.State(m.y)
	sx, sy := xs[self], ys[self]
	for _, j := range env.Visible() {
		if j == self {
			continue
		}
		dx, dy := sx-xs[j], sy-ys[j]
		d2 := dx*dx + dy*dy
		if d2 == 0 {
			continue
		}
		env.Assign(self, m.ax, dx/d2)
		env.Assign(self, m.ay, dy/d2)
		env.Assign(self, m.cnt, 1)
	}
}

func (m *flockModel) Update(self *agent.Agent, u *UpdateCtx) {
	n := self.Effect[m.cnt]
	if n > 0 {
		self.State[m.vx] = 0.5*self.State[m.vx] + 0.1*self.Effect[m.ax]/n
		self.State[m.vy] = 0.5*self.State[m.vy] + 0.1*self.Effect[m.ay]/n
	}
	self.State[m.vx] += 0.01 * (u.RNG.Float64() - 0.5)
	self.State[m.vy] += 0.01 * (u.RNG.Float64() - 0.5)
	self.State[m.x] += self.State[m.vx]
	self.State[m.y] += self.State[m.vy]
}

// pushModel is a minimal non-local model: every agent pushes its visible
// neighbors away by assigning to *their* effect fields.
type pushModel struct {
	s      *agent.Schema
	x, y   int
	px, py int
}

func newPushModel(vis float64) *pushModel {
	s := agent.NewSchema("Push")
	m := &pushModel{s: s}
	m.x = s.AddState("x", true)
	m.y = s.AddState("y", true)
	m.px = s.AddEffect("pushx", true, agent.Sum)
	m.py = s.AddEffect("pushy", true, agent.Sum)
	s.SetPosition("x", "y").SetVisibility(vis).SetReach(2)
	return m
}

func (m *pushModel) Schema() *agent.Schema    { return m.s }
func (m *pushModel) HasNonLocalEffects() bool { return true }

func (m *pushModel) Query(env *Cols, self int32) {
	xs, ys := env.State(m.x), env.State(m.y)
	sx, sy := xs[self], ys[self]
	for _, j := range env.Visible() {
		if j == self {
			continue
		}
		dx, dy := xs[j]-sx, ys[j]-sy
		d := math.Hypot(dx, dy)
		if d == 0 {
			continue
		}
		env.Assign(j, m.px, 0.1*dx/d)
		env.Assign(j, m.py, 0.1*dy/d)
	}
}

func (m *pushModel) Update(self *agent.Agent, u *UpdateCtx) {
	self.State[m.x] += self.Effect[m.px]
	self.State[m.y] += self.Effect[m.py]
}

// lifeModel exercises spawning and death: an agent spawns one child every
// spawnEvery ticks and dies after lifespan ticks (tracked in state).
type lifeModel struct {
	s          *agent.Schema
	x, y, age  int
	spawnEvery uint64
	lifespan   float64
}

func newLifeModel() *lifeModel {
	s := agent.NewSchema("Life")
	m := &lifeModel{s: s, spawnEvery: 3, lifespan: 7}
	m.x = s.AddState("x", true)
	m.y = s.AddState("y", true)
	m.age = s.AddState("age", false)
	s.SetPosition("x", "y").SetVisibility(5).SetReach(1)
	return m
}

func (m *lifeModel) Schema() *agent.Schema { return m.s }
func (m *lifeModel) Query(*Cols, int32)    {}

func (m *lifeModel) Update(self *agent.Agent, u *UpdateCtx) {
	self.State[m.age]++
	if self.State[m.age] >= m.lifespan {
		u.Kill(self)
		return
	}
	if u.Tick%m.spawnEvery == 2 {
		c := u.Spawn()
		c.State[m.x] = self.State[m.x] + u.RNG.Range(-0.5, 0.5)
		c.State[m.y] = self.State[m.y] + u.RNG.Range(-0.5, 0.5)
	}
	self.State[m.x] += u.RNG.Range(-0.5, 0.5)
}

func makePop(s *agent.Schema, n int, span float64, seed uint64) []*agent.Agent {
	pop := make([]*agent.Agent, n)
	rng := agent.NewRNG(seed, 0, 0)
	for i := range pop {
		a := agent.New(s, agent.ID(i+1))
		a.SetPos(s, geom.V(rng.Float64()*span, rng.Float64()*span))
		pop[i] = a
	}
	return pop
}

func clonePop(pop []*agent.Agent) []*agent.Agent {
	out := make([]*agent.Agent, len(pop))
	for i, a := range pop {
		out[i] = a.Clone()
	}
	return out
}

func popsExactlyEqual(t *testing.T, name string, a, b agent.Population) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: population sizes differ: %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("%s: agent %d differs:\n  %v\n  %v", name, a[i].ID, a[i], b[i])
		}
	}
}

func popsApproxEqual(t *testing.T, name string, a, b agent.Population, tol float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: population sizes differ: %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("%s: agent ID mismatch at %d: %d vs %d", name, i, a[i].ID, b[i].ID)
		}
		for j := range a[i].State {
			if d := math.Abs(a[i].State[j] - b[i].State[j]); d > tol {
				t.Fatalf("%s: agent %d state[%d]: %v vs %v (Δ%g)",
					name, a[i].ID, j, a[i].State[j], b[i].State[j], d)
			}
		}
	}
}

const testTicks = 12

// The naive oracle and the partitioned engine at any partition count agree
// bit for bit on a local-effects model.
func TestSequentialMatchesDistributedLocal(t *testing.T) {
	m := newFlockModel(8)
	base := makePop(m.s, 120, 60, 1)

	want := Naive(m, clonePop(base), 42, testTicks)

	for _, workers := range []int{1, 4, 7} {
		dist, err := NewDistributed(m, clonePop(base), Options{
			Workers: workers, Index: spatial.KindKDTree, Seed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := dist.RunTicks(testTicks); err != nil {
			t.Fatal(err)
		}
		popsExactlyEqual(t, "oracle vs dist", want, dist.Agents())
	}
}

// Grid and scan runs are bit-identical for local and non-local models alike;
// the load-balanced runs add ticks whose owned agents migrate between
// partitions, which a non-local model probes in ascending ID order with the
// core.
func TestIndexKindsAgreeExactly(t *testing.T) {
	flock, push := newFlockModel(8), newPushModel(6)
	for _, tc := range []struct {
		name string
		m    Model
		base []*agent.Agent
		opts Options
	}{
		{"flock", flock, makePop(flock.s, 100, 50, 2), Options{}},
		{"push", push, makePop(push.s, 80, 40, 4), Options{}},
		{"push/lb", push, makePop(push.s, 80, 40, 4), Options{LoadBalance: true, EpochTicks: 3}},
	} {
		var ref agent.Population
		for i, kind := range []spatial.Kind{spatial.KindScan, spatial.KindKDTree} {
			opts := tc.opts
			opts.Workers, opts.Index, opts.Seed = 3, kind, 7
			e, err := NewDistributed(tc.m, clonePop(tc.base), opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.RunTicks(testTicks); err != nil {
				t.Fatal(err)
			}
			if opts.LoadBalance && !slices.ContainsFunc(e.Epochs(), func(s EpochStat) bool { return s.Rebalanced }) {
				t.Fatalf("%s/%s: no rebalance, so no migrant tick", tc.name, kind)
			}
			if i == 0 {
				ref = e.Agents()
			} else {
				popsExactlyEqual(t, tc.name+"/"+kind.String(), ref, e.Agents())
			}
		}
	}
}

// Unbounded visibility replicates every agent to every partition: each
// probe returns the whole copy set in ID order.
func TestDistributedUnboundedVisibility(t *testing.T) {
	m := newFlockModel(0)
	base := makePop(m.s, 60, 40, 6)
	want := Naive(m, clonePop(base), 11, testTicks)
	for _, kind := range []spatial.Kind{spatial.KindKDTree, spatial.KindScan} {
		e, err := NewDistributed(m, clonePop(base), Options{
			Workers: 3, Index: kind, Seed: 11, LoadBalance: true, EpochTicks: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RunTicks(testTicks); err != nil {
			t.Fatal(err)
		}
		popsExactlyEqual(t, "unbounded "+kind.String(), want, e.Agents())
	}
}

func TestDeterminismSameConfig(t *testing.T) {
	m := newPushModel(6)
	base := makePop(m.s, 80, 40, 3)
	run := func() agent.Population {
		e, err := NewDistributed(m, clonePop(base), Options{
			Workers: 4, Index: spatial.KindKDTree, Seed: 99,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RunTicks(testTicks); err != nil {
			t.Fatal(err)
		}
		return e.Agents()
	}
	popsExactlyEqual(t, "repeat run", run(), run())
}

func TestNonLocalSequentialVsDistributed(t *testing.T) {
	m := newPushModel(6)
	base := makePop(m.s, 80, 40, 4)

	want := Naive(m, clonePop(base), 5, testTicks)

	// One worker: a single partition folds effects exactly like the
	// oracle's ascending-ID sweep.
	one, err := NewDistributed(m, clonePop(base), Options{Workers: 1, Index: spatial.KindKDTree, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := one.RunTicks(testTicks); err != nil {
		t.Fatal(err)
	}
	popsExactlyEqual(t, "nonlocal 1-worker", want, one.Agents())

	// Many workers: the global ⊕ folds per-partition partials, so agree
	// only up to floating-point reassociation. Under load balancing the
	// tick after a cut change also ships the replicas a partition sent
	// itself of agents it just gave up.
	for _, lb := range []bool{false, true} {
		four, err := NewDistributed(m, clonePop(base), Options{
			Workers: 4, Index: spatial.KindKDTree, Seed: 5, LoadBalance: lb, EpochTicks: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := four.RunTicks(testTicks); err != nil {
			t.Fatal(err)
		}
		popsApproxEqual(t, "nonlocal 4-worker", want, four.Agents(), 1e-7)
	}
}

func TestNonLocalAssignPanicsInLocalModel(t *testing.T) {
	// A flock model that (incorrectly) assigns to a neighbor.
	m := newFlockModel(8)
	bad := &badModel{flockModel: m}
	pop := makePop(m.s, 10, 5, 6)
	// The panic is raised by queryEnv.Assign; a lone partition runs on
	// this goroutine, where recover() sees it.
	e, err := NewDistributed(bad, pop, Options{Workers: 1, Index: spatial.KindScan, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "engine: non-local effect assignment (agent ") ||
			!strings.Contains(msg, "in a local-effects model; implement NonLocalModel") {
			t.Errorf("undeclared non-local assignment panicked with %q", msg)
		}
	}()
	_ = e.RunTicks(1)
}

type badModel struct{ *flockModel }

func (b *badModel) Query(env *Cols, self int32) {
	for _, j := range env.Visible() {
		if j != self {
			env.Assign(j, b.cnt, 1) // non-local, undeclared
		}
	}
}

func TestSpawnAndKillDeterministic(t *testing.T) {
	m := newLifeModel()
	base := makePop(m.s, 20, 20, 7)
	want := Naive(m, clonePop(base), 11, 15)
	dist, err := NewDistributed(m, clonePop(base), Options{Workers: 3, Index: spatial.KindKDTree, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := dist.RunTicks(15); err != nil {
		t.Fatal(err)
	}
	popsExactlyEqual(t, "life", want, dist.Agents())
	if len(want) == 0 {
		t.Fatal("population died out; test model mis-tuned")
	}
	// Originals (lifespan 7) must all be gone after 15 ticks.
	for _, a := range want {
		if a.ID <= 20 {
			t.Errorf("agent %d outlived its lifespan", a.ID)
		}
	}
}

func TestReachCrop(t *testing.T) {
	m := &jumpModel{newFlockModel(8)}
	pop := makePop(m.s, 5, 10, 8)
	e, err := NewDistributed(m, clonePop(pop), Options{Workers: 1, Index: spatial.KindScan, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	start := make(map[agent.ID]geom.Vec)
	for _, a := range pop {
		start[a.ID] = a.Pos(m.s)
	}
	if err := e.RunTicks(1); err != nil {
		t.Fatal(err)
	}
	for _, a := range e.Agents() {
		d := a.Pos(m.s).Sub(start[a.ID])
		if math.Abs(d.X) > 1+1e-12 || math.Abs(d.Y) > 1+1e-12 {
			t.Errorf("agent %d moved %v, beyond reach 1", a.ID, d)
		}
	}
}

type jumpModel struct{ *flockModel }

func (j *jumpModel) Update(self *agent.Agent, u *UpdateCtx) {
	self.State[j.x] += 100 // tries to teleport; reach crop must stop it
	self.State[j.y] -= 50
}

func TestVisibilityLimitsInteraction(t *testing.T) {
	// Two agents farther apart than the visibility bound must not see
	// each other: their count effects stay zero.
	m := newFlockModel(5)
	a := agent.New(m.s, 1)
	a.SetPos(m.s, geom.V(0, 0))
	b := agent.New(m.s, 2)
	b.SetPos(m.s, geom.V(100, 0))
	e, err := NewDistributed(m, []*agent.Agent{a, b}, Options{Workers: 2, Index: spatial.KindKDTree, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTicks(1); err != nil {
		t.Fatal(err)
	}
	// With no visible neighbors the velocity is only the random nudge
	// (≤ 0.005), so displacement stays tiny.
	for _, ag := range e.Agents() {
		v := math.Hypot(ag.State[m.vx], ag.State[m.vy])
		if v > 0.01 {
			t.Errorf("agent %d gained velocity %v from an invisible neighbor", ag.ID, v)
		}
	}
}

// Visibility is a closed bound: two agents at exactly the visibility
// distance see each other, consistently across engines and index kinds
// (RangeCircle and ReplicaTargets both use ≤).
func TestVisibilityBoundaryInclusive(t *testing.T) {
	m := newFlockModel(5)
	for _, kind := range []spatial.Kind{spatial.KindScan, spatial.KindKDTree} {
		a := agent.New(m.s, 1)
		a.SetPos(m.s, geom.V(0, 0))
		b := agent.New(m.s, 2)
		b.SetPos(m.s, geom.V(5, 0)) // exactly the visibility bound
		e, err := NewDistributed(m, []*agent.Agent{a, b}, Options{
			Workers: 2, Index: kind, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RunTicks(1); err != nil {
			t.Fatal(err)
		}
		// The flock model counts visible neighbors into vx/vy; a neighbor
		// at exactly distance 5 must register (velocity beyond the random
		// nudge).
		for _, ag := range e.Agents() {
			v := math.Hypot(ag.State[m.vx], ag.State[m.vy])
			if v <= 0.005 {
				t.Errorf("%v: boundary neighbor invisible to agent %d (v=%v)", kind, ag.ID, v)
			}
		}
	}
}

func TestLoadBalancingReducesImbalance(t *testing.T) {
	m := newFlockModel(3)
	// Skewed population: 90% in a corner.
	pop := makePop(m.s, 200, 10, 9)
	for i := 180; i < 200; i++ {
		pop[i].SetPos(m.s, geom.V(100+float64(i), 0))
	}
	cm := cluster.DefaultCostModel()
	e, err := NewDistributed(m, pop, Options{
		Workers: 4, Index: spatial.KindKDTree, Seed: 3,
		LoadBalance: true, EpochTicks: 5, CostModel: &cm,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately bad partitioning, installed before the first tick:
	// uniform over the full span.
	if err := e.InstallCuts([]float64{75, 150, 225}); err != nil {
		t.Fatal(err)
	}
	if err := e.RunTicks(20); err != nil {
		t.Fatal(err)
	}
	eps := e.Epochs()
	if len(eps) == 0 {
		t.Fatal("no epoch stats recorded")
	}
	rebalanced := false
	for _, ep := range eps {
		if ep.Rebalanced {
			rebalanced = true
		}
	}
	if !rebalanced {
		t.Fatal("load balancer never fired on a 90% skew")
	}
	// The balancer equalizes *cost*, not raw counts, so allow slack on the
	// count-based imbalance; it must still improve markedly from the ~3.6
	// of the skewed initial partitioning.
	if last := eps[len(eps)-1].Imbalance; last > 2.5 {
		t.Errorf("final imbalance = %v, want ≤ 2.5", last)
	}
	if first, last := eps[0].Imbalance, eps[len(eps)-1].Imbalance; last >= first {
		t.Errorf("imbalance did not improve: %v -> %v", first, last)
	}
}

// Cuts arrive over the wire (rebalancing directives, checkpoints): a
// non-finite cut is refused and the partitioning stays as it was.
func TestInstallCutsRejectsNonFinite(t *testing.T) {
	m := newFlockModel(3)
	e, err := NewDistributed(m, makePop(m.s, 40, 10, 2), Options{
		Workers: 4, Index: spatial.KindKDTree, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := e.Partition().Cuts()
	for _, cuts := range [][]float64{
		{0, math.NaN(), 5},
		{0, 1, math.Inf(1)},
		{math.Inf(-1), 0, 1},
	} {
		if err := e.InstallCuts(cuts); err == nil {
			t.Errorf("InstallCuts(%v) accepted", cuts)
		}
		if got := e.Partition().Cuts(); !slices.Equal(got, before) {
			t.Fatalf("InstallCuts(%v) changed cuts %v -> %v", cuts, before, got)
		}
	}
}

func TestFailureRecoveryThroughEngine(t *testing.T) {
	m := newFlockModel(8)
	base := makePop(m.s, 60, 30, 10)
	clean, err := NewDistributed(m, clonePop(base), Options{
		Workers: 3, Index: spatial.KindKDTree, Seed: 13,
		EpochTicks: 4, CheckpointEveryEpochs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := clean.RunTicks(16); err != nil {
		t.Fatal(err)
	}
	faulty, err := NewDistributed(m, clonePop(base), Options{
		Workers: 3, Index: spatial.KindKDTree, Seed: 13,
		EpochTicks: 4, CheckpointEveryEpochs: 1,
		Transport: closeAt(transport.NewMem(3), 13), // tick 6's map
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := faulty.RunTicks(16); err != nil {
		t.Fatal(err)
	}
	if faulty.Recoveries() != 1 {
		t.Fatalf("Recoveries = %d", faulty.Recoveries())
	}
	popsExactlyEqual(t, "failure recovery", clean.Agents(), faulty.Agents())
}

func TestEngineStatsAccessors(t *testing.T) {
	m := newFlockModel(5)
	cmodel := cluster.DefaultCostModel()
	e, err := NewDistributed(m, makePop(m.s, 50, 25, 11), Options{
		Workers: 2, Index: spatial.KindKDTree, Seed: 1, CostModel: &cmodel,
		EpochTicks: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTicks(10); err != nil {
		t.Fatal(err)
	}
	if e.Tick() != 10 {
		t.Errorf("Tick = %d", e.Tick())
	}
	if e.AgentTicks() != 500 {
		t.Errorf("AgentTicks = %d, want 500", e.AgentTicks())
	}
	if e.Visited() == 0 {
		t.Error("Visited = 0")
	}
	if e.VirtualSeconds() <= 0 {
		t.Error("VirtualSeconds should be positive with a cost model")
	}
	if e.ThroughputVirtual() <= 0 {
		t.Error("ThroughputVirtual should be positive")
	}
	if e.WallSeconds() <= 0 || e.ThroughputWall() <= 0 {
		t.Error("wall stats should be positive")
	}
	if e.Partition().N() != 2 {
		t.Error("Partition")
	}
}

// A one-partition run keeps the same gauges as any other.
func TestSequentialStatsAccessors(t *testing.T) {
	m := newFlockModel(5)
	e, err := NewDistributed(m, makePop(m.s, 30, 15, 12), Options{Workers: 1, Index: spatial.KindScan, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTicks(4); err != nil {
		t.Fatal(err)
	}
	if e.Tick() != 4 || e.AgentTicks() != 120 {
		t.Errorf("Tick/AgentTicks = %d/%d", e.Tick(), e.AgentTicks())
	}
	if e.Visited() == 0 || e.WallSeconds() <= 0 || e.ThroughputWall() <= 0 {
		t.Error("one-partition stats broken")
	}
}

func TestOptionsValidation(t *testing.T) {
	m := newFlockModel(5)
	for _, opts := range []Options{
		{Workers: 0},
		{Workers: 1, EpochTicks: -3},
		{Workers: 1, CheckpointEveryEpochs: -1},
	} {
		if _, err := NewDistributed(m, nil, opts); err == nil {
			t.Errorf("%+v accepted", opts)
		}
	}
	bad := agent.NewSchema("NoPos")
	bad.AddState("q", true)
	if _, err := NewDistributed(&schemaOnlyModel{bad}, nil, Options{Workers: 1, Index: spatial.KindScan, Seed: 1}); err == nil {
		t.Error("schema without position accepted")
	}
}

type schemaOnlyModel struct{ s *agent.Schema }

func (m *schemaOnlyModel) Schema() *agent.Schema           { return m.s }
func (m *schemaOnlyModel) Query(*Cols, int32)              {}
func (m *schemaOnlyModel) Update(*agent.Agent, *UpdateCtx) {}
