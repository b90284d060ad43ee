package brace

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// Partitions are the only unit of parallelism and they are joined every
// tick: a finished run leaves no goroutine behind at any partition count.
// At the parent the spatial worker pool kept GOMAXPROCS-1 workers alive
// forever.
// First in the file, so the pre-run count is the test binary's own.
func TestRunLeavesNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	sp, ok := LookupScenario("fish")
	if !ok {
		t.Fatal("fish not registered")
	}
	before := runtime.NumGoroutine()
	for _, cfg := range []Config{{Workers: 1, Seed: 1}, {Workers: 8, Seed: 1}} {
		// 1500 fish: enough rows per part that the parent fanned out.
		m, pop, err := sp.New(ScenarioConfig{Agents: 1500, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		sim, err := New(m, pop, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(20); err != nil {
			t.Fatal(err)
		}
		// A joined goroutine may still be unwinding when its waiter resumes.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%+v: %d goroutines before the run, %d after", cfg, before, after)
		}
	}
}

const quickFishSrc = `
class Fish {
  public state float x : x + vx; #range[-5,5];
  public state float y : y + vy; #range[-5,5];
  public state float vx : 0.5 * vx + avoidx / max(count, 1);
  public state float vy : 0.5 * vy + avoidy / max(count, 1);
  private effect float avoidx : sum;
  private effect float avoidy : sum;
  private effect int count : sum;
  public void run() {
    foreach (Fish p : Extent<Fish>) {
      if (p != this) {
        avoidx <- (x - p.x) / (dist(this, p) + 0.01);
        avoidy <- (y - p.y) / (dist(this, p) + 0.01);
        count <- 1;
      }
    }
  }
}
`

func TestPublicAPIBRASILRoundTrip(t *testing.T) {
	prog, err := CompileBRASIL(quickFishSrc, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pop := SeedPopulation(prog.Schema(), 50, 1, 30)
	sim, err := New(prog, pop, Config{Workers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(10); err != nil {
		t.Fatal(err)
	}
	m := sim.Metrics()
	if m.Ticks != 10 || m.Agents != 50 || m.AgentTicks != 500 {
		t.Errorf("metrics = %+v", m)
	}
	if m.CandidatesSeen == 0 || m.WallSeconds <= 0 {
		t.Errorf("work counters empty: %+v", m)
	}
	if !strings.Contains(m.String(), "agent-ticks") {
		t.Error("Metrics.String format")
	}
}

func TestPublicAPISequentialMatchesDistributed(t *testing.T) {
	prog, err := CompileBRASIL(quickFishSrc, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(workers int) []*Agent {
		pop := SeedPopulation(prog.Schema(), 40, 2, 25)
		sim, err := New(prog, pop, Config{Workers: workers, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(8); err != nil {
			t.Fatal(err)
		}
		return sim.Agents()
	}
	a := mk(1)
	b := mk(5)
	if len(a) != len(b) {
		t.Fatal("sizes differ")
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("agent %d diverged between 1 and 5 workers", a[i].ID)
		}
	}
}

func TestPublicAPIGoModel(t *testing.T) {
	m := NewFishModel(DefaultFishParams())
	pop := m.NewPopulation(80, 3)
	sim, err := New(m, pop, Config{Workers: 3, Seed: 3, VirtualTime: true, LoadBalance: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(12); err != nil {
		t.Fatal(err)
	}
	mt := sim.Metrics()
	if mt.VirtualSeconds <= 0 || mt.ThroughputVirtual <= 0 {
		t.Errorf("virtual accounting missing: %+v", mt)
	}
	if mt.LocalBytes == 0 {
		t.Error("no collocated traffic metered")
	}
}

// seenModel is a Go model written against this package alone: each agent
// counts the agents it sees, itself included.
type seenModel struct {
	s          *Schema
	seen, near int
}

func (m *seenModel) Schema() *Schema { return m.s }
func (m *seenModel) Query(env *Cols, self int32) {
	env.Assign(self, m.near, float64(len(env.Visible())))
}
func (m *seenModel) Update(self *Agent, _ *UpdateCtx) { self.State[m.seen] = self.Effect[m.near] }

func TestPublicAPIColsModel(t *testing.T) {
	s := NewSchema("Seen")
	s.AddState("x", true)
	s.AddState("y", true)
	m := &seenModel{s: s, seen: s.AddState("seen", false), near: s.AddEffect("near", false, Sum)}
	s.SetPosition("x", "y").SetVisibility(2)
	var pop []*Agent
	for i, x := range []float64{0, 1, 10} {
		a := NewAgent(s, ID(i+1))
		a.SetPos(s, V(x, 0))
		pop = append(pop, a)
	}
	sim, err := New(m, pop, Config{Workers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(1); err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{2, 2, 1} {
		if got := sim.Agents()[i].State[m.seen]; got != want {
			t.Errorf("agent %d sees %v agents, want %v", i+1, got, want)
		}
	}
}

func TestPublicAPIPredatorVariants(t *testing.T) {
	for _, inverted := range []bool{false, true} {
		m := NewPredatorModel(DefaultPredatorParams(), inverted)
		sim, err := New(m, m.NewPopulation(60, 4), Config{Workers: 2, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(5); err != nil {
			t.Fatal(err)
		}
		if len(sim.Agents()) == 0 {
			t.Error("population vanished")
		}
	}
}

func TestPublicAPITrafficAndMITSIM(t *testing.T) {
	p := DefaultTrafficParams(2000)
	tm := NewTrafficModel(p)
	sim, err := New(tm, tm.NewPopulation(5), Config{Workers: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(5); err != nil {
		t.Fatal(err)
	}
	mit := NewMITSIM(p, 5)
	mit.RunTicks(5)
	if mit.Cars() == 0 || len(sim.Agents()) == 0 {
		t.Error("traffic sims empty")
	}
}

func TestConfigDefaults(t *testing.T) {
	m := NewFishModel(DefaultFishParams())
	sim, err := New(m, m.NewPopulation(10, 6), Config{}) // zero config
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(2); err != nil {
		t.Fatal(err)
	}
	if sim.Tick() != 2 {
		t.Error("Tick")
	}
	for _, cfg := range []Config{{Workers: -1}, {EpochTicks: -3}, {Sequential: true, Workers: 2}} {
		if _, err := New(m, m.NewPopulation(10, 6), cfg); err == nil {
			t.Errorf("%+v accepted", cfg)
		}
	}
}

// Partitioning may replicate work, but only so much: on the benchmark's
// fish school, eight partitions examine at most 1.03× the candidates per
// agent-tick that one does. Every partition builds its blocks from one
// cell grid over its whole copy set, of one edge rule, so the bound is the
// measured ratio plus a margin: this run reads 332.3 on one partition vs
// 327.9 on eight (0.99×). A count, not a timing: it repeats exactly.
func TestPartitionedCandidateWorkGuard(t *testing.T) {
	sp, ok := LookupScenario("fish")
	if !ok {
		t.Fatal("fish scenario not registered")
	}
	perAgentTick := func(cfg Config) float64 {
		m, pop, err := sp.New(ScenarioConfig{Agents: 2000, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Seed = 7
		sim, err := New(m, pop, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(40); err != nil {
			t.Fatal(err)
		}
		mt := sim.Metrics()
		if mt.AgentTicks != 2000*40 {
			t.Fatalf("agent-ticks = %d, want %d", mt.AgentTicks, 2000*40)
		}
		return float64(mt.CandidatesSeen) / float64(mt.AgentTicks)
	}
	one := perAgentTick(Config{Workers: 1})
	part := perAgentTick(Config{Workers: 8})
	t.Logf("candidates per agent-tick: 1 partition %.1f, 8 partitions %.1f (%.2f×)", one, part, part/one)
	if part > 1.03*one {
		t.Errorf("8 partitions examine %.1f candidates per agent-tick, over 1.03× one partition's %.1f", part, one)
	}
}

// A negative tick count is an error at any partition count and leaves the
// simulation where it was; it must not wrap the tick target to ~2^64.
func TestRunNegativeTicksIsAnError(t *testing.T) {
	prog, err := CompileBRASIL(quickFishSrc, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"one partition", Config{Workers: 1, Seed: 1}},
		{"two partitions", Config{Workers: 2, Seed: 1}},
	} {
		sim, err := New(prog, SeedPopulation(prog.Schema(), 30, 1, 20), tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- sim.Run(-1) }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "negative tick count") {
				t.Errorf("%s: Run(-1) = %v, want a negative-tick-count error", tc.name, err)
			}
			if sim.Tick() != 0 {
				t.Errorf("%s: Run(-1) advanced to tick %d", tc.name, sim.Tick())
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: Run(-1) still running after 2s", tc.name)
		}
	}
}
