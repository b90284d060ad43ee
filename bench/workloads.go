package main

import (
	_ "embed"
	"fmt"
	"net"
	"runtime"
	"time"

	brace "github.com/bigreddata/brace"
	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/distrib"
	"github.com/bigreddata/brace/internal/spatial"
)

const (
	epochTicks = 10 // the engines' default master interval
	warmEpochs = 2  // epochs per lap excluded from timing
	checkTicks = 20 // tick at which sequential workloads are cross-checked

	fishAgents   = 2000
	brasilAgents = 4000
	brasilSpan   = 150 // ≈14 visible neighbours at visibility 5
	partitions   = 8
	daemons      = 2
	checkWorkers = 5 // partition count of the sequential workloads' cross-check run
)

//go:embed testdata/avoid.brasil
var avoidScript string

// workload is one set of inputs. A run repeats rounds of fixed-length laps
// of it — one lap per derived seed, each a fresh simulation from tick 0 —
// until the requested measuring time is used up. Every count is then a
// property of the lap and repeats exactly, every lap has identical
// replicas in the other rounds to reject a disturbed one against, and only
// the number of rounds depends on the machine.
type workload struct {
	name, why string
	// lapTicks is the lap length at -scale 1; sized so a lap takes about
	// one second on the 2-core box the baseline was taken on.
	lapTicks int
	// seeds is how many populations a run measures, each generated from
	// its own seed derived from -seed. What a tick costs depends on how
	// the generated school happens to evolve (±10 % between fish seeds),
	// so a run reports the aggregate over several populations and not the
	// luck of one. The single-threaded fish baseline, whose run-to-run
	// noise is smallest and whose seed luck therefore shows most, takes
	// twice as many at half the lap length.
	seeds int
	// sequential runs on the single-loop engine with GOMAXPROCS and the
	// spatial pool pinned to 1; otherwise both are min(nproc, 2).
	sequential bool
	// brasil swaps the fish scenario for the compiled avoidance script.
	brasil bool
	// tcp runs through distrib.Run on in-process daemons over loopback
	// sockets; otherwise non-sequential workloads use engine.Distributed
	// over transport.Mem via brace.Config.Workers.
	tcp bool
	// ckptLB adds per-epoch incremental checkpoints and load balancing.
	ckptLB bool
}

var workloads = []workload{
	{
		name: "seq-fish", lapTicks: 80, seeds: 8, sequential: true,
		why: "single-threaded baseline: KD build, Verlet lists and columnar fish queries do all the work; no transport or barrier",
	},
	{
		name: "seq-brasil", lapTicks: 150, seeds: 4, sequential: true, brasil: true,
		why: "scripted closure-style Env path: the Verlet gate disables itself, so a KD build and range probes run every tick",
	},
	{
		name: "mem-fish-8p", lapTicks: 80, seeds: 4,
		why: "8 partitions over transport.Mem: adds replication, mapreduce phases and envelope copies with no codec or socket",
	},
	{
		name: "tcp-fish-8p", lapTicks: 70, seeds: 4, tcp: true,
		why: "8 partitions on 2 daemons over loopback with mesh: per-frame gob and the stats/directive barrier dominate",
	},
	{
		name: "tcp-fish-ckpt-lb", lapTicks: 70, seeds: 4, tcp: true, ckptLB: true,
		why: "as tcp-fish-8p plus per-epoch full/delta checkpoints and load balancing: bulk writes share the wire with envelopes",
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// bench is one run of one workload.
type bench struct {
	w        workload
	seeds    []uint64  // derived from the run's -seed
	lapTicks int       // scaled, a multiple of epochTicks
	rec      *recorder // nil when untraced
}

func newBench(w workload, seed uint64, scale float64) *bench {
	epochs := int(float64(w.lapTicks)*scale) / epochTicks
	if epochs < warmEpochs+1 {
		epochs = warmEpochs + 1
	}
	seeds := int(float64(w.seeds) * scale)
	if seeds < 1 {
		seeds = 1
	}
	if seeds > w.seeds {
		seeds = w.seeds // more ticks per lap, never more than the workload's populations
	}
	b := &bench{w: w, lapTicks: epochs * epochTicks, seeds: make([]uint64, seeds)}
	for j := range b.seeds {
		// Well-separated streams even for consecutive -seed values; never
		// 0, which the engines read as "unset".
		b.seeds[j] = agent.NewRNG(seed, uint64(j), 1).Uint64() | 1
	}
	return b
}

func (b *bench) procs() int {
	if b.w.sequential || runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// pinProcs fixes GOMAXPROCS and the spatial pool at n and returns the
// function that restores both.
func pinProcs(n int) (restore func()) {
	prevProcs := runtime.GOMAXPROCS(n)
	prevPool := spatial.Parallelism()
	spatial.SetParallelism(n)
	return func() {
		runtime.GOMAXPROCS(prevProcs)
		spatial.SetParallelism(prevPool)
	}
}

func (b *bench) agents() int {
	if b.w.brasil {
		return brasilAgents
	}
	return fishAgents
}

// population generates one lap's inputs from its seed: the engine only
// ever receives this model and population.
func (b *bench) population(seed uint64) (brace.Model, []*agent.Agent, error) {
	if b.w.brasil {
		id := b.rec.begin("brasil.compile")
		prog, err := brace.CompileBRASIL(avoidScript, brace.CompileOptions{})
		b.rec.end(id)
		if err != nil {
			return nil, nil, fmt.Errorf("compile avoid.brasil: %w", err)
		}
		id = b.rec.begin("scenario.build")
		pop := brace.SeedPopulation(prog.Schema(), brasilAgents, seed, brasilSpan)
		b.rec.end(id)
		return prog, pop, nil
	}
	sp, ok := brace.LookupScenario("fish")
	if !ok {
		return nil, nil, brace.ErrUnknownScenario("fish")
	}
	id := b.rec.begin("scenario.build")
	m, pop, err := sp.New(brace.ScenarioConfig{Agents: fishAgents, Seed: seed})
	b.rec.end(id)
	return m, pop, err
}

// newSim builds the workload's in-process simulation with the given
// engine configuration.
func (b *bench) newSim(seed uint64, cfg brace.Config) (*brace.Simulation, error) {
	m, pop, err := b.population(seed)
	if err != nil {
		return nil, err
	}
	cfg.Seed = seed
	id := b.rec.begin("engine.new")
	sim, err := brace.New(m, pop, cfg)
	b.rec.end(id)
	return sim, err
}

// config is the engine configuration the workload measures.
func (b *bench) config() brace.Config {
	if b.w.sequential {
		return brace.Config{Sequential: true}
	}
	return brace.Config{Workers: partitions}
}

// distOptions is the coordinator configuration of the tcp workloads.
func (b *bench) distOptions(seed uint64, addrs []string, agents, ticks int) distrib.Options {
	o := distrib.Options{
		Addrs:      addrs,
		Scenario:   "fish",
		Agents:     agents,
		Seed:       seed,
		Partitions: partitions,
		Ticks:      ticks,
		Tunables:   distrib.Tunables{Mesh: true},
	}
	if b.w.ckptLB {
		o.LoadBalance = true
		o.CheckpointEveryEpochs = 1
	}
	return o
}

// fleet is a set of in-process worker daemons on loopback sockets.
type fleet struct {
	addrs []string
	drain chan struct{}
	done  chan error
}

func startFleet(n int) (*fleet, error) {
	f := &fleet{drain: make(chan struct{}), done: make(chan error, n)}
	for i := 0; i < n; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, fmt.Errorf("listen: %w", err)
		}
		f.addrs = append(f.addrs, lis.Addr().String())
		go func() { f.done <- distrib.ServeWith(lis, distrib.ServeOptions{Drain: f.drain}) }()
	}
	return f, nil
}

// stop drains the daemons and waits until each accept loop has returned.
func (f *fleet) stop() error {
	close(f.drain)
	var first error
	for range f.addrs {
		if err := <-f.done; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// setupOnce times one construction of the workload: scenario build (or
// script compile and seeding) plus engine construction, or for the tcp
// workloads fresh daemons plus a zero-tick distrib.Run (dial, handshake,
// tick-0 state on every process, final report).
func (b *bench) setupOnce(seed uint64) (time.Duration, error) {
	id := b.rec.begin("setup")
	defer b.rec.end(id)
	t0 := time.Now()
	if !b.w.tcp {
		_, err := b.newSim(seed, b.config())
		return time.Since(t0), err
	}
	f, err := startFleet(daemons)
	if err != nil {
		return 0, err
	}
	_, err = distrib.Run(b.distOptions(seed, f.addrs, fishAgents, 0))
	d := time.Since(t0)
	if serr := f.stop(); err == nil {
		err = serr
	}
	return d, err
}

// lapStats is what one lap measured.
type lapStats struct {
	epochs    []time.Duration // timed epochs (warm-up excluded)
	attempted int             // epochs attempted, warm-up included
	failed    int             // epochs whose call errored
	// Heap objects and bytes the whole lap allocated: construction, every
	// tick, and reading the final state out.
	objects, bytes uint64
	heapBase       uint64 // live heap when the lap began: the benchmark's own
	heapPeak       uint64 // largest live heap seen at an epoch boundary
	final          uint64 // digest at the lap's last tick
	check          uint64 // digest at checkTick (in-process laps)
	wireBytes      int64  // whole lap
	localBytes     int64  // whole lap
	wireMsgs       int64  // whole lap

	// In-process engine counters, whole lap.
	builds, reuses, candidates, agentTicks int64
	// Per-tick times of a traced sequential lap, split by whether the
	// tick rebuilt the index.
	buildTicks, reuseTicks []time.Duration

	dist *distrib.Result // tcp laps
}

func (ls *lapStats) sampleHeap() {
	if h := heapLive(); h > ls.heapPeak {
		ls.heapPeak = h
	}
}

// checkTick is the tick at which a sequential lap's digest is taken for
// the cross-engine comparison.
func (b *bench) checkTick() int {
	if b.lapTicks < checkTicks {
		return b.lapTicks
	}
	return checkTicks
}

// lap runs one lap of the workload at one derived seed. stepped makes a
// sequential lap advance tick by tick to split rebuild ticks from reuse
// ticks; it is only meaningful for the sequential engine, where
// Run(1)×10 ≡ Run(10) (the distributed engine ends an epoch at the end of
// every Run call).
func (b *bench) lap(seed uint64, stepped bool) (*lapStats, error) {
	runtime.GC()
	id := b.rec.begin("lap")
	defer b.rec.end(id)
	ls := &lapStats{heapBase: heapLive()}
	obj0, byt0 := allocCounters()
	var err error
	if b.w.tcp {
		err = b.tcpLap(seed, ls)
	} else {
		err = b.simLap(seed, stepped && b.w.sequential, ls)
	}
	obj1, byt1 := allocCounters()
	ls.objects, ls.bytes = obj1-obj0, byt1-byt0
	return ls, err
}

func (b *bench) simLap(seed uint64, stepped bool, ls *lapStats) error {
	sim, err := b.newSim(seed, b.config())
	if err != nil {
		return err
	}
	for e := 0; e < b.lapTicks/epochTicks; e++ {
		ls.attempted++
		id := b.rec.begin("engine.epoch")
		t0 := time.Now()
		if stepped {
			err = b.steppedEpoch(sim, ls)
		} else {
			err = sim.Run(epochTicks)
		}
		d := time.Since(t0)
		b.rec.end(id)
		if err != nil {
			ls.failed++
			return fmt.Errorf("%s: epoch %d: %w", b.w.name, e, err)
		}
		if e >= warmEpochs {
			ls.epochs = append(ls.epochs, d)
		}
		ls.sampleHeap()
		if int(sim.Tick()) == b.checkTick() {
			ls.check = digest(sim.Agents())
		}
	}
	id := b.rec.begin("engine.agents")
	ls.final = digest(sim.Agents())
	b.rec.end(id)
	// A lap too small to trigger a collection of its own still gets one
	// sample of what the engine keeps alive.
	runtime.GC()
	ls.sampleHeap()
	m := sim.Metrics()
	ls.wireBytes, ls.localBytes = m.NetworkBytes, m.LocalBytes
	ls.builds, ls.reuses = m.CacheBuilds, m.CacheReuses
	ls.candidates, ls.agentTicks = m.CandidatesSeen, m.AgentTicks
	return nil
}

// steppedEpoch advances one epoch a tick at a time, recording each tick
// as a rebuild or a reuse tick by whether Metrics().CacheBuilds moved.
func (b *bench) steppedEpoch(sim *brace.Simulation, ls *lapStats) error {
	builds := sim.Metrics().CacheBuilds
	for i := 0; i < epochTicks; i++ {
		id := b.rec.begin("engine.tick")
		t0 := time.Now()
		err := sim.Run(1)
		d := time.Since(t0)
		b.rec.end(id)
		if err != nil {
			return err
		}
		if now := sim.Metrics().CacheBuilds; now != builds {
			builds = now
			ls.buildTicks = append(ls.buildTicks, d)
		} else {
			ls.reuseTicks = append(ls.reuseTicks, d)
		}
	}
	return nil
}

func (b *bench) tcpLap(seed uint64, ls *lapStats) error {
	f, err := startFleet(daemons)
	if err != nil {
		return err
	}
	ls.dist, err = b.distRun(seed, f.addrs, fishAgents, b.lapTicks, ls)
	if serr := f.stop(); err == nil {
		err = serr
	}
	ls.attempted = b.lapTicks / epochTicks
	if err != nil {
		// A failed distrib.Run yields nothing: every epoch of the lap failed.
		ls.failed = ls.attempted
		return fmt.Errorf("%s: %w", b.w.name, err)
	}
	res := ls.dist
	ls.final = digest(res.Agents)
	res.Agents = nil // digested; a run keeps its laps, not their populations
	ls.wireBytes = res.Net.SentBytes + res.CheckpointBytes
	ls.wireMsgs = res.Net.SentMsgs
	ls.localBytes = res.Net.LocalBytes
	return nil
}

// distRun is one distrib.Run timed from the coordinator's OnEpoch
// callbacks: the epoch ending at callback k lasted from callback k-1.
func (b *bench) distRun(seed uint64, addrs []string, agents, ticks int, ls *lapStats) (*distrib.Result, error) {
	o := b.distOptions(seed, addrs, agents, ticks)
	var prev time.Time
	n := 0
	o.OnEpoch = func(distrib.EpochDecision) {
		now := time.Now()
		n++
		if n > warmEpochs {
			ls.epochs = append(ls.epochs, now.Sub(prev))
		}
		if n > 1 {
			b.rec.add("distrib.epoch", prev, now)
		}
		ls.sampleHeap()
		prev = time.Now()
	}
	id := b.rec.begin("distrib.run")
	res, err := distrib.Run(o)
	b.rec.end(id)
	if err == nil && n != ticks/epochTicks {
		err = fmt.Errorf("coordinator reported %d epochs, want %d", n, ticks/epochTicks)
	}
	return res, err
}
