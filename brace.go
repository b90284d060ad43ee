// Package brace is BRACE — the Big Red Agent-based Computation Engine — a
// Go reproduction of "Behavioral Simulations in MapReduce" (Wang et al.,
// VLDB 2010).
//
// BRACE treats a behavioral (agent-based) simulation as an iterated
// spatial join and executes it on a shared-nothing, main-memory MapReduce
// runtime: every tick, each agent's *query phase* joins it with the agents
// in its visible region (reducers over spatially partitioned, replicated
// data), and its *update phase* advances its own state (collocated map
// tasks). Effect fields with commutative combinators make the query phase
// order-independent, so the same simulation runs bit-identically on one
// worker or many.
//
// Two ways to define behavior:
//
//   - implement Model in Go: one query body, Query(env *Cols, self int32),
//     reads the state columns over the rows its probes return and folds
//     effects through env.Assign (see the models returned by NewFishModel,
//     NewTrafficModel, NewPredatorModel), or
//   - write a BRASIL script and CompileBRASIL it; the compiler enforces
//     the state-effect pattern and applies automatic index selection and
//     effect inversion.
//
// Quickstart:
//
//	model, _ := brace.CompileBRASIL(src, brace.CompileOptions{})
//	pop := brace.SeedPopulation(model.Schema(), 1000, seed, area)
//	sim, _ := brace.New(model, pop, brace.Config{Workers: 8})
//	_ = sim.Run(1000)
//	fmt.Println(sim.Metrics())
package brace

import (
	"fmt"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/brasil"
	"github.com/bigreddata/brace/internal/cluster"
	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/geom"
	"github.com/bigreddata/brace/internal/spatial"
)

// Re-exported core types; see the respective internal packages for full
// documentation.
type (
	// Agent is one simulated individual: ⟨oid, state, effects⟩.
	Agent = agent.Agent
	// ID identifies an agent for its lifetime.
	ID = agent.ID
	// Schema declares an agent class's state/effect fields and spatial
	// constraints.
	Schema = agent.Schema
	// Combinator folds effect assignments (commutative + associative).
	Combinator = agent.Combinator
	// Model is agent behavior under the state-effect pattern.
	Model = engine.Model
	// Cols is the query phase's window onto the visible region: state
	// columns, probes that return rows, and Assign.
	Cols = engine.Cols
	// Env is the closure-style view of the same window (Cols.Env).
	Env = engine.Env
	// UpdateCtx carries update-phase randomness and lifecycle operations.
	UpdateCtx = engine.UpdateCtx
	// Vec is a 2-D point.
	Vec = geom.Vec
	// CompileOptions selects BRASIL optimizer passes.
	CompileOptions = brasil.CompileOptions
	// Program is a compiled BRASIL script (implements Model).
	Program = brasil.Program
)

// Builtin effect combinators.
var (
	Sum = agent.Sum
	Min = agent.Min
	Max = agent.Max
	Mul = agent.Mul
	Or  = agent.Or
	And = agent.And
)

// NewSchema starts declaring an agent class.
func NewSchema(name string) *Schema { return agent.NewSchema(name) }

// NewAgent allocates an agent of the given schema.
func NewAgent(s *Schema, id ID) *Agent { return agent.New(s, id) }

// V constructs a Vec.
func V(x, y float64) Vec { return geom.V(x, y) }

// IndexKind selects the reducer-side spatial index; it marshals as text
// ("kd", "scan").
type IndexKind = spatial.Kind

const (
	// IndexKD is the default index: the engine's per-tick cell grid (the
	// name is the paper's KD-tree, which the grid replaced).
	IndexKD = spatial.KindKDTree
	// IndexScan disables indexing (the "no indexing" baselines): the
	// grid has one cell, so every candidate block holds every agent.
	IndexScan = spatial.KindScan
)

// ParseIndex resolves an index name ("kd", "scan"; "" defaults to kd).
var ParseIndex = spatial.ParseKind

// Config tunes a Simulation.
type Config struct {
	// Workers is the number of simulated worker nodes (≥1). Zero means 1.
	Workers int
	// Index selects the spatial index (default: the cell grid).
	Index IndexKind
	// Seed drives all simulation randomness.
	Seed uint64
	// EpochTicks is the master coordination interval (default 10).
	EpochTicks int
	// LoadBalance enables the 1-D load balancer at epoch boundaries.
	LoadBalance bool
	// VirtualTime enables the calibrated cluster cost model, making
	// Metrics report virtual-time throughput alongside wall time.
	VirtualTime bool
	// Sequential means exactly Workers: 1, the one-partition engine, which
	// is how every single-node run executes; setting it with Workers > 1
	// is an error. It remains as an alias only until the benchmark stops
	// setting it. Partitions are the unit of parallelism: for multi-core,
	// set Workers to at least the core count.
	Sequential bool
}

// Simulation is a running BRACE simulation.
type Simulation struct {
	e *engine.Distributed
}

// New builds a simulation with the given model and initial population.
func New(m Model, pop []*Agent, cfg Config) (*Simulation, error) {
	if cfg.Workers < 0 || cfg.EpochTicks < 0 {
		return nil, fmt.Errorf("brace: negative Workers %d or EpochTicks %d", cfg.Workers, cfg.EpochTicks)
	}
	if cfg.Sequential && cfg.Workers > 1 {
		return nil, fmt.Errorf("brace: Sequential means Workers: 1, got Workers %d", cfg.Workers)
	}
	opts := engine.Options{
		Workers:     max(cfg.Workers, 1),
		Index:       cfg.Index,
		Seed:        cfg.Seed,
		EpochTicks:  cfg.EpochTicks,
		LoadBalance: cfg.LoadBalance,
	}
	if cfg.VirtualTime {
		cm := cluster.DefaultCostModel()
		opts.CostModel = &cm
	}
	e, err := engine.NewDistributed(m, pop, opts)
	if err != nil {
		return nil, err
	}
	return &Simulation{e: e}, nil
}

// Run advances the simulation n full ticks (query + update each). A
// negative n is an error.
func (s *Simulation) Run(n int) error { return s.e.RunTicks(n) }

// Agents returns the live population, sorted by ID.
func (s *Simulation) Agents() []*Agent { return s.e.Agents() }

// Tick returns completed ticks.
func (s *Simulation) Tick() uint64 { return s.e.Tick() }

// Metrics summarizes a run.
type Metrics struct {
	Ticks      uint64
	Agents     int
	AgentTicks int64
	// CandidatesSeen counts the candidates the query phases examined:
	// for each group of agents that shares a candidate block (the agents
	// of one crowded grid cell, else one agent), the grid members the
	// block's build read, plus for each probe the block members its
	// filter read. A metric, not an input: it depends on the index kind
	// and the partitioning, and no decision reads it.
	CandidatesSeen int64
	WallSeconds    float64
	// VirtualSeconds and ThroughputVirtual are zero unless VirtualTime
	// accounting is enabled.
	VirtualSeconds    float64
	ThroughputWall    float64
	ThroughputVirtual float64
	// NetworkBytes / LocalBytes meter the simulated cluster traffic: the
	// bytes crossing between partitions, and those a partition sends
	// itself.
	NetworkBytes int64
	LocalBytes   int64
	// CacheBuilds counts the partitions' per-tick cell-grid builds (of
	// one cell under the scan). CacheReuses is always zero: nothing is
	// kept between ticks. Both keep their names for the benchmark, which
	// reads them.
	CacheBuilds int64
	CacheReuses int64
}

// Metrics reports run statistics.
func (s *Simulation) Metrics() Metrics {
	t := s.e.Runtime().Transport().Metrics().Totals()
	return Metrics{
		Ticks:             s.e.Tick(),
		Agents:            len(s.e.Agents()),
		AgentTicks:        s.e.AgentTicks(),
		CandidatesSeen:    s.e.Visited(),
		WallSeconds:       s.e.WallSeconds(),
		VirtualSeconds:    s.e.VirtualSeconds(),
		ThroughputWall:    s.e.ThroughputWall(),
		ThroughputVirtual: s.e.ThroughputVirtual(),
		NetworkBytes:      t.SentBytes,
		LocalBytes:        t.LocalBytes,
		CacheBuilds:       s.e.GridBuilds(),
	}
}

// String implements fmt.Stringer.
func (m Metrics) String() string {
	s := fmt.Sprintf("ticks=%d agents=%d agent-ticks=%d wall=%.3fs tput=%.3g at/s",
		m.Ticks, m.Agents, m.AgentTicks, m.WallSeconds, m.ThroughputWall)
	if m.VirtualSeconds > 0 {
		s += fmt.Sprintf(" virtual=%.3fs vtput=%.3g at/s", m.VirtualSeconds, m.ThroughputVirtual)
	}
	if m.NetworkBytes > 0 || m.LocalBytes > 0 {
		s += fmt.Sprintf(" net=%dB local=%dB", m.NetworkBytes, m.LocalBytes)
	}
	return s
}

// EpochStat is one epoch's record: virtual time consumed, per-worker
// owned-agent counts, load imbalance (max/mean) and whether the load
// balancer repartitioned.
type EpochStat = engine.EpochStat

// EpochStats returns per-epoch statistics.
func (s *Simulation) EpochStats() []EpochStat { return s.e.Epochs() }

// CompileBRASIL compiles a BRASIL script into a Model.
func CompileBRASIL(src string, opt CompileOptions) (*Program, error) {
	return brasil.Compile(src, opt)
}

// SeedPopulation scatters n agents of the given schema uniformly over the
// rectangle [0,span]×[0,span] with zeroed non-position state — a
// convenience for quickstarts; real workloads build their own populations.
func SeedPopulation(s *Schema, n int, seed uint64, span float64) []*Agent {
	pop := make([]*Agent, n)
	for i := range pop {
		id := agent.ID(i + 1)
		rng := agent.NewRNG(seed, 0, id)
		a := agent.New(s, id)
		a.SetPos(s, geom.V(rng.Float64()*span, rng.Float64()*span))
		pop[i] = a
	}
	return pop
}
