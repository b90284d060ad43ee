package engine

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/cluster"
	"github.com/bigreddata/brace/internal/geom"
	"github.com/bigreddata/brace/internal/mapreduce"
	"github.com/bigreddata/brace/internal/partition"
	"github.com/bigreddata/brace/internal/spatial"
	"github.com/bigreddata/brace/internal/transport"
)

// Options configures a Distributed engine.
type Options struct {
	// Workers is the number of worker nodes (= spatial partitions). One
	// is the single-node engine: its partition ticks on the calling
	// goroutine.
	Workers int
	// Index selects the spatial index used by reducers: the zero value
	// (KindKDTree) is the per-tick cell grid, KindScan a grid of one cell,
	// the "no indexing" configuration of Figs. 3–4.
	Index spatial.Kind
	// Seed drives all simulation randomness.
	Seed uint64
	// EpochTicks is the master interaction interval (0 = default 10).
	EpochTicks int
	// CheckpointEveryEpochs orders a coordinated checkpoint every k epochs
	// (0 = only the initial rollback point is kept). Checkpoints exist to
	// recover from a crash, and only a caller that supplied Transport can
	// close it under the engine: without one none is taken and no copy is
	// held. With one, every checkpoint is each partition's full state,
	// cloned once for the engine's own master to hold.
	CheckpointEveryEpochs int
	// LoadBalance enables the one-dimensional load balancer at epoch
	// boundaries.
	LoadBalance bool
	// Balancer tunes load balancing; zero value means DefaultBalancer.
	Balancer partition.Balancer
	// CostModel, when non-nil, enables virtual-time accounting (see
	// internal/cluster): required for the scale-up experiments.
	CostModel *cluster.CostModel
	// Transport overrides the message layer (default: in-memory); its
	// node count must equal Workers. A multi-process run passes the TCP
	// transport wired to its coordinator. In process, closing it is the
	// crash: the phase it interrupts is lost (transport.ErrRestore), and
	// the master rolls back to its last checkpoint and re-executes.
	Transport transport.Transport
	// LocalParts restricts this engine to computing the given partitions
	// (nil = all). Set by the distributed driver: every worker process
	// builds the same model and initial population, then loads and ticks
	// only the partitions the coordinator assigned it. Incompatible with
	// engine-local LoadBalance and CostModel, which need a global view — in
	// multi-process runs the coordinator owns load balancing and recovery,
	// and drives this engine through EpochBarrier, InstallCuts and Restore;
	// a lost phase's transport.ErrRestore reaches the caller unanswered.
	LocalParts []int
	// EpochBarrier, when non-nil, runs first at every epoch boundary.
	// Distributed workers use it for the coordinator round-trip (ship
	// stats, await the directive); a returned error aborts RunTicks.
	EpochBarrier func(tick uint64) error
}

// EpochStat records one epoch for the Fig. 8 style series.
type EpochStat struct {
	Tick        uint64
	VirtualSec  float64 // virtual time consumed by this epoch's ticks
	OwnedCounts []int
	Imbalance   float64 // max/mean of owned counts
	Rebalanced  bool
}

// Distributed is the BRACE engine: a Model executed as an iterated spatial
// join on the MapReduce runtime.
type Distributed struct {
	core
	opts Options

	part   *partition.Strips
	rt     *mapreduce.Runtime[*Envelope]
	vclock *cluster.VClock

	// Per-worker tick counters; each worker writes only its own slot
	// during a phase and the master reads after the phase barrier. Metrics
	// only: no decision reads wVisited (the balancer's input is part.cost).
	wOwned   []int64
	wVisited []int64

	// Reusable per-worker machinery: parts[w] is partition w's query
	// machine (index, probe envs, build buffers, update context, the
	// epoch's balancer cost), bufs[w] the envelope-side buffers prepare
	// fills around it.
	parts []*part
	bufs  []partBufs

	// migrateTick is the one tick on which owned agents may arrive from
	// peers: the first under cuts InstallCuts replaced, when agents move
	// to their new owners. On every other tick an owned agent sends
	// itself, and checkPeer refuses one a peer sent.
	migrateTick uint64

	// master decides the epochs of an engine that computes every partition
	// (nil under LocalParts: the coordinator's does); recoveries counts its
	// rollbacks.
	master     *Master
	recoveries int

	epochs     []EpochStat
	lastEpochV float64
	virtStart  float64
}

// NewDistributed builds the engine and loads the initial population.
func NewDistributed(m Model, pop []*agent.Agent, opts Options) (*Distributed, error) {
	c, err := newCore(m, opts.Seed)
	if err != nil {
		return nil, err
	}
	if opts.Workers < 1 {
		return nil, fmt.Errorf("engine: Workers must be ≥ 1, got %d", opts.Workers)
	}
	if opts.EpochTicks < 0 || opts.CheckpointEveryEpochs < 0 {
		return nil, fmt.Errorf("engine: negative EpochTicks %d or CheckpointEveryEpochs %d", opts.EpochTicks, opts.CheckpointEveryEpochs)
	}
	if opts.LocalParts != nil {
		// A partial engine sees only its own partitions; features that
		// need the whole cluster's state live on the coordinator side or
		// are unsupported in multi-process runs.
		switch {
		case opts.LoadBalance:
			return nil, fmt.Errorf("engine: LoadBalance needs a global view; unsupported with LocalParts")
		case opts.CostModel != nil:
			return nil, fmt.Errorf("engine: CostModel needs a global view; unsupported with LocalParts")
		}
	}
	s := c.schema
	e := &Distributed{
		core:     c,
		opts:     opts,
		wOwned:   make([]int64, opts.Workers),
		wVisited: make([]int64, opts.Workers),
		parts:    make([]*part, opts.Workers),
		bufs:     make([]partBufs, opts.Workers),

		migrateTick: neverTick,
	}
	for i := range e.parts {
		e.parts[i] = e.newPart(opts.Index)
	}
	if !e.nonLocal && opts.Workers > 1 {
		// Capped, so that an append through a replica's Effect cannot
		// write into the shared vector. One partition replicates nothing.
		theta := slices.Clip(s.IdentityEffects())
		for _, p := range e.parts {
			p.theta = theta
		}
	}

	// The initial population as owned envelopes, one array, in ID order.
	envs := make([]Envelope, len(pop))
	vals := make([]*Envelope, len(pop))
	for i, a := range pop {
		envs[i].A = a
		vals[i] = &envs[i]
	}
	slices.SortFunc(vals, byID)
	// Initial partitioning: equal-count quantiles of the initial agent x
	// positions (§3.3: "the master computes a partitioning function based
	// on the visible regions of the agents and then broadcasts [it]"), and
	// each partition's owned copies as one batch. One strip owns everything
	// and needs no positions.
	e.part = partition.InitialStrips(nil, 1)
	load := [][]*Envelope{vals}
	if opts.Workers > 1 {
		xs := make([]float64, len(vals))
		for i, env := range vals {
			xs[i] = env.A.Pos(s).X
		}
		e.part = partition.InitialStrips(xs, opts.Workers)
		load = make([][]*Envelope, opts.Workers)
		for i, env := range vals {
			p := e.part.Locate(geom.Vec{X: xs[i]})
			env.SrcPart = int32(p)
			load[p] = append(load[p], env)
		}
	}

	if opts.CostModel != nil {
		e.vclock = cluster.NewVClock(opts.Workers, *opts.CostModel)
	}

	job := mapreduce.Job[*Envelope]{
		Name:       s.Name,
		Map:        e.mapPhase,
		Reduce1:    e.reduce1,
		Check:      e.checkPeer,
		ValueBytes: s.ByteSize(),
	}
	if e.nonLocal {
		job.Reduce2 = e.reduce2
	}
	e.rt = mapreduce.New(job, mapreduce.Config{
		Workers:    opts.Workers,
		Transport:  opts.Transport,
		LocalParts: opts.LocalParts,
		EpochTicks: opts.EpochTicks,
		VClock:     e.vclock,
		Barrier:    opts.EpochBarrier,
		OnEpoch:    e.onEpoch,
	})

	// With LocalParts, every process derives the identical partitioning
	// from the identical full population, then loads only the agents it
	// owns — the union across processes is exactly the single-process load.
	local := make([]bool, opts.Workers)
	for _, p := range e.rt.Local() {
		local[p] = true
		e.rt.Load(p, load[p])
	}
	for p, vs := range load {
		if !local[p] {
			for _, env := range vs {
				*env = Envelope{} // another process's agent: keep none of it alive
			}
		}
	}
	if opts.LocalParts == nil {
		// Only a caller holding the transport can close it under the engine
		// (nobody reaches the runtime's own Mem), so only then does the
		// master hold the tick-0 state and order checkpoints.
		initial, every := Checkpoint{Cuts: e.part.Cuts()}, 0
		if opts.Transport != nil {
			every = opts.CheckpointEveryEpochs
			initial.Parts = make([]transport.PartState, opts.Workers)
			for p := range initial.Parts {
				initial.Parts[p] = transport.PartState{Part: p, Full: true, Values: CloneEnvelopes(e.rt.Values(p))}
			}
		}
		e.master = NewMaster(initial, every, opts.LoadBalance, opts.Balancer)
	}
	return e, nil
}

// mapPhase is mapᵗ₁: distribute and replicate (Table 1; update has already
// run at the end of the previous tick's final reduce, which is collocated
// with this map on the same worker).
//
// Replicas come from the worker's replicaArena, which this call resets: a
// replica is valid from here until this worker's next map phase. Every
// reader is done before then — reduce₁'s pass (the column gathers) and,
// for non-local models, reduce₂'s ⊕ in the same tick — because eachWorker
// is a barrier between phases. Under TCP a co-resident partition receives
// the pointer within the phase and a remote one a copy in a column block,
// encoded before Send returns. Checkpoints, exports, Agents and the final
// report read owned values only, and the cell grid copies positions, never
// agents.
func (e *Distributed) mapPhase(ctx *mapreduce.Ctx, envs []*Envelope, emit mapreduce.Emit[*Envelope]) {
	b, p := &e.bufs[ctx.Worker], e.parts[ctx.Worker]
	b.arena.reset()
	for _, env := range envs {
		if env.Replica || env.A.Dead {
			continue
		}
		pos := env.A.Pos(e.schema)
		owner := e.part.Locate(pos)
		env.SrcPart = int32(owner)
		emit(owner, env)
		b.targets = partition.ReplicaTargets(e.part, pos, e.schema.Visibility, b.targets[:0])
		var state []float64 // the agent's snapshot, taken at its first foreign target
		for _, q := range b.targets {
			if q == owner {
				continue
			}
			if state == nil {
				state = b.arena.snapshot(env.A)
			}
			emit(q, b.arena.replica(env.A, state, int32(owner), p.theta))
		}
	}
}

// checkPeer vets an envelope a peer sent (mapreduce.Job.Check), so that
// a broken or hostile peer fails the run instead of panicking a phase: the
// envelope must carry an agent of the schema's shape, and outside the
// migration tick the map phase delivers replicas only, since every owned
// agent sent itself.
func (e *Distributed) checkPeer(ctx *mapreduce.Ctx, env *Envelope) error {
	s := e.schema
	switch {
	case env == nil || env.A == nil:
		return errors.New("engine: envelope without an agent")
	case len(env.A.State) != s.NumState() || len(env.A.Effect) != s.NumEffect():
		return fmt.Errorf("engine: agent %d has %d state and %d effect fields, schema %s has %d and %d",
			env.A.ID, len(env.A.State), len(env.A.Effect), s.Name, s.NumState(), s.NumEffect())
	case ctx.Phase == mapreduce.PhaseMap && !env.Replica && ctx.Tick != e.migrateTick:
		return fmt.Errorf("engine: owned agent %d arrived from a peer outside a migration tick", env.A.ID)
	}
	return nil
}

// reduce1 is reduceᵗ₁, one pass once the map phase has fully drained.
// Everything it delivered — the copies this partition sent itself and
// those its peers sent, owned agents and replicas alike — is merged in
// agent ID order into one copy set with one cell grid (prepare), and the
// owned slots probe it. The tick's compute — every candidate the partition's
// Visited gauge counted, plus the owned agents — is charged to the
// virtual clock as one superstep. Then local effects update every owned
// agent (in any order: an update reads only its own agent, and its
// randomness is a function of seed, tick and ID); non-local effects route
// every owned copy and every touched replica to its owner for the global
// ⊕ of reduceᵗ₂.
func (e *Distributed) reduce1(ctx *mapreduce.Ctx, envs []*Envelope, emit mapreduce.Emit[*Envelope]) {
	w := ctx.Worker
	owned := e.prepare(w, envs)
	visited := e.parts[w].query(owned)
	e.wVisited[w] += visited
	e.wOwned[w] += int64(len(owned))
	if e.vclock != nil {
		e.vclock.ChargeCompute(cluster.NodeID(w), visited, int64(len(owned)))
	}
	for _, env := range envs {
		switch {
		case !e.nonLocal:
			if !env.Replica {
				e.updateAndEmit(ctx, env, emit)
			}
		case !env.Replica:
			// An owned copy is at its owner already.
			env.SrcPart = int32(w)
			emit(w, env)
		case effectsAreIdentity(e.combs, env.A.Effect):
			// untouched replica: nothing to aggregate
		default:
			// Right after a cut change the owner may be this partition:
			// it replicated an agent it just gave up to itself.
			env.SrcPart = int32(w)
			emit(e.part.Locate(env.A.Pos(e.schema)), env)
		}
	}
}

// reduce2 is reduceᵗ₂: global effect aggregation ⊕ followed by the update
// phase (folded in here; the identity mapᵗ₂ is eliminated, §3.2).
func (e *Distributed) reduce2(ctx *mapreduce.Ctx, envs []*Envelope, emit mapreduce.Emit[*Envelope]) {
	w := ctx.Worker
	// Group by agent; fold partials in ascending SrcPart order so the ⊕
	// fold order is a function of the partitioning alone. Each sender's
	// batch is one run of that order, so a merge makes it.
	e.bufs[w].order(envs, byPartial)
	i := 0
	for i < len(envs) {
		j := i
		for j < len(envs) && envs[j].A.ID == envs[i].A.ID {
			j++
		}
		oe := envs[i]
		if oe.Replica {
			// Partials for an agent that died or was lost: drop.
			i = j
			continue
		}
		for _, pe := range envs[i+1 : j] {
			agent.CombineEffects(e.schema, oe.A.Effect, pe.A.Effect)
		}
		e.updateAndEmit(ctx, oe, emit)
		i = j
	}
	if e.vclock != nil {
		e.vclock.ChargeCompute(cluster.NodeID(w), 0, int64(len(envs)))
	}
}

// updateAndEmit runs the update phase for one owned agent and routes the
// outcome: the owned copy to its (possibly new) owner partition unless the
// agent died, and every spawned agent to the partition owning its position.
func (e *Distributed) updateAndEmit(ctx *mapreduce.Ctx, oe *Envelope, emit mapreduce.Emit[*Envelope]) {
	a := oe.A
	spawns := e.parts[ctx.Worker].update(a, ctx.Tick)
	if a.Dead {
		// The envelope may share its allocation with live ones (the
		// initial population's are one array): let go of the agent.
		oe.A = nil
	} else {
		owner := e.part.Locate(a.Pos(e.schema))
		oe.Replica = false
		oe.SrcPart = int32(owner)
		emit(owner, oe)
	}
	for _, sp := range spawns {
		owner := e.part.Locate(sp.Pos(e.schema))
		emit(owner, &Envelope{A: sp, SrcPart: int32(owner)})
	}
}

// partBufs is one partition's reusable envelope-side tick state; every
// use rewrites what it reads, so reuse is pure allocation avoidance.
type partBufs struct {
	copies    []*agent.Agent
	ownedSlot []int32
	targets   []int // mapPhase's replica targets
	arena     replicaArena
	merge     *runMerger[*Envelope] // order's, made at the first input that is not one run
}

// order orders envs by cmp: a merge of their ascending runs. A lone
// partition's input is one run, the batch it sent itself, so its
// partBufs carries no merger until an input is not.
func (b *partBufs) order(envs []*Envelope, cmp func(a, b *Envelope) int) {
	if b.merge == nil {
		if slices.IsSortedFunc(envs, cmp) {
			return
		}
		b.merge = new(runMerger[*Envelope])
	}
	b.merge.sort(envs, cmp)
}

// prepare orders this reducer's envelopes by agent ID, builds partition
// w's index over the copies, and returns the owned slots, ascending. What
// the map phase delivered is the batch w sent itself, then each peer's
// batch, each emitted in the order its sender walked its values, so the
// order is a merge of those runs (runMerger), not a sort.
func (e *Distributed) prepare(w int, envs []*Envelope) (ownedSlots []int32) {
	b := &e.bufs[w]
	b.order(envs, byID)
	// Cleared, not just truncated: a stale pointer past the new length
	// would keep a whole decoded frame's block of replicas alive.
	clear(b.copies)
	b.copies = resize(b.copies, len(envs))
	b.ownedSlot = b.ownedSlot[:0]
	for i, env := range envs {
		b.copies[i] = env.A
		if !env.Replica {
			b.ownedSlot = append(b.ownedSlot, int32(i))
		}
	}
	e.parts[w].build(b.copies)
	return b.ownedSlot
}

// neverTick is the "no tick" sentinel for migrateTick.
const neverTick = ^uint64(0)

// GridBuilds returns the cell grids the partitions have built, one per
// partition-tick (a one-cell grid under KindScan).
func (e *Distributed) GridBuilds() int64 {
	var n int64
	for _, p := range e.parts {
		n += p.builds
	}
	return n
}

// RunTicks advances the simulation n full ticks (query + update each),
// answering a lost phase (a closed transport) as a worker answers a
// restore: the master rewinds, the engine restores, and the run goes on to
// the same tick.
func (e *Distributed) RunTicks(n int) error {
	if e.vclock != nil && e.rt.Tick() == 0 {
		e.virtStart = e.vclock.Now()
	}
	target := e.rt.Tick() + uint64(max(n, 0))
	return e.timed(func() error {
		if e.rt.Tick() == 0 && n > 0 {
			e.pack()
		}
		err := e.rt.RunTicks(n)
		for e.master != nil && errors.Is(err, transport.ErrRestore) {
			if err := e.RestoreCheckpoint(e.master.Rewind(), nil); err != nil {
				return err
			}
			e.recoveries++
			err = e.rt.RunTicks(int(target - e.rt.Tick()))
		}
		return err
	})
}

// pack relayouts each local partition's agent storage in Morton order of
// the current positions, at the start of the first tick: a partition owns
// a spatially contiguous region, so a Z-ordered arena keeps its agents and
// their neighbors dense in memory for the candidate walks. It is the one
// relayout, for every partition count — a pure one, so neither results nor
// checkpoints can tell (see agent.PackMorton) — and its cost lands in the
// first tick, not in construction.
func (e *Distributed) pack() {
	for _, p := range e.rt.Local() {
		b := &e.bufs[p]
		b.copies = b.copies[:0]
		for _, env := range e.rt.Values(p) {
			b.copies = append(b.copies, env.A)
		}
		agent.PackMorton(e.schema, b.copies)
	}
}

// onEpoch runs at epoch boundaries: record statistics and, in an engine
// that is its own master, have it decide and carry the decision out.
func (e *Distributed) onEpoch(tick uint64) error {
	counts := e.rt.OwnedCounts()
	loads := make([]float64, len(counts))
	for i, c := range counts {
		loads[i] = float64(c)
	}
	st := EpochStat{
		Tick:        tick,
		OwnedCounts: counts,
		Imbalance:   partition.Imbalance(loads),
	}
	if e.vclock != nil {
		now := e.vclock.Now()
		st.VirtualSec = now - e.lastEpochV
		e.lastEpochV = now
	}

	var owned, visited int64
	for w := range e.wOwned {
		owned += e.wOwned[w]
		visited += e.wVisited[w]
	}
	e.agentTicks = owned
	e.visited = visited

	if e.master != nil {
		d, err := e.master.Barrier(tick, e.EpochStats(e.opts.LoadBalance))
		if err == nil {
			err = e.ApplyDirective(&d, func(pieces []transport.PartState) error {
				// The pieces alias live state, and the master holds what it
				// files: this is the checkpoint's one copy.
				for i := range pieces {
					pieces[i].Values = CloneEnvelopes(pieces[i].Values)
				}
				_, err := e.master.File(pieces...)
				return err
			})
		}
		if err != nil {
			return err
		}
		st.Rebalanced = d.NewCuts != nil
	}

	// The cost is per epoch: a distributed worker shipped it in the barrier
	// hook, which runs before this one.
	e.resetCosts()
	e.epochs = append(e.epochs, st)
	return nil
}

// Agents returns the current population, ID-sorted (owned copies only).
// It counts the agents first, so the population is one allocation.
func (e *Distributed) Agents() agent.Population {
	live := func(env *Envelope) bool { return !env.Replica && !env.A.Dead }
	n := 0
	for p := 0; p < e.opts.Workers; p++ {
		for _, env := range e.rt.Values(p) {
			if live(env) {
				n++
			}
		}
	}
	pop := make(agent.Population, 0, n)
	for p := 0; p < e.opts.Workers; p++ {
		for _, env := range e.rt.Values(p) {
			if live(env) {
				pop = append(pop, env.A)
			}
		}
	}
	slices.SortFunc(pop, func(a, b *agent.Agent) int { return cmp.Compare(a.ID, b.ID) })
	return pop
}

// Tick returns completed ticks.
func (e *Distributed) Tick() uint64 { return e.rt.Tick() }

// Partition returns the current strip partitioning.
func (e *Distributed) Partition() *partition.Strips { return e.part }

// Runtime exposes the underlying MapReduce runtime (metrics, transport).
func (e *Distributed) Runtime() *mapreduce.Runtime[*Envelope] { return e.rt }

// Epochs returns per-epoch statistics recorded so far.
func (e *Distributed) Epochs() []EpochStat { return e.epochs }

// Decisions returns the master's decision log (nil under LocalParts, where
// the coordinator keeps it).
func (e *Distributed) Decisions() []EpochDecision {
	if e.master == nil {
		return nil
	}
	return e.master.Log()
}

// Recoveries returns how many checkpoint rollbacks the engine performed.
func (e *Distributed) Recoveries() int { return e.recoveries }

// VirtualSeconds returns virtual time consumed since construction (0 when
// virtual accounting is disabled).
func (e *Distributed) VirtualSeconds() float64 {
	if e.vclock == nil {
		return 0
	}
	return e.vclock.Now() - e.virtStart
}

// ThroughputVirtual returns agent-ticks per virtual second, the Fig. 5–7
// metric.
func (e *Distributed) ThroughputVirtual() float64 {
	v := e.VirtualSeconds()
	if v <= 0 {
		return 0
	}
	return float64(e.agentTicks) / v
}
